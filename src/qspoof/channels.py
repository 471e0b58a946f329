"""Kraus representations of the interceptor's state replacement.

Any fixed distortion rho -> rho' is a physical (completely positive,
trace-preserving) map; ``realize_channel`` constructs an explicit operator
set witnessing that.  Trace preservation is the completeness condition
sum_k E_k^dagger E_k = identity, measured in Frobenius norm by
``completeness_residual``.  A channel built from operators stores its k
operators as one read-only (k, d, d) array, and the residual and the
application sum them one operator at a time.  A realized channel stores
only its d x rank factor A, whose columns a_i are the target's scaled
support eigenvectors: its operators E_ij = a_i e_j^T are built when
``operators`` is first read, and the residual and the application use the
closed forms sum E_ij^dagger E_ij = ||A||_F^2 I and
sum E_ij rho E_ij^dagger = Tr(rho) A A^dagger, in O(d^2) memory.
Construction does not enforce completeness, so deliberately broken
operator sets can be built and diagnosed; application does enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import DensityOperator, as_matrix, spectral_decompose, _support_rank

# Channels whose completeness residual exceeds this are refused application.
COMPLETENESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered set of square operators of one shape defining a channel.
    ``operators`` is any iterable of matrices, a (k, d, d) array included;
    it is stored as one read-only (k, d, d) complex array, whose last axis
    is the dimension.  A channel from ``realize_channel`` builds that array
    when ``operators`` is first read."""

    operators: np.ndarray
    # the d x rank factor of a realized channel; None for a channel built from operators
    _factor: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ops = list(self.operators)
        if not ops:
            raise ValueError("a channel needs at least one operator")
        first = np.shape(ops[0])
        for idx, op in enumerate(ops):
            shape = np.shape(op)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"operator {idx} has shape {shape}, expected a square matrix")
            if shape != first:
                raise ValueError(f"operator {idx} has shape {shape}, expected {first}")
        stack = np.array(ops, dtype=np.complex128)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"operator {int(np.argmin(finite))} contains non-finite entries")
        stack.flags.writeable = False
        object.__setattr__(self, "operators", stack)

    def __getattr__(self, name):
        # reached only for an attribute not yet set: a realized channel's
        # operators before their first read
        if name != "operators" or self._factor is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d, rank = self._factor.shape
        ops = np.zeros((rank, d, d, d), dtype=np.complex128)  # (i, j, row, column)
        j = np.arange(d)
        ops[:, j, :, j] = self._factor.T
        ops = ops.reshape(rank * d, d, d)
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        return ops

    @property
    def dim(self) -> int:
        if self._factor is not None:
            return self._factor.shape[0]
        return self.operators.shape[-1]


def completeness_residual(channel: KrausChannel) -> float:
    """Frobenius distance of sum_k E_k^dagger E_k from the identity."""
    if channel._factor is not None:
        # sum_ij E_ij^dagger E_ij = ||A||_F^2 I
        mass = float(np.vdot(channel._factor, channel._factor).real)
        return float(abs(mass - 1.0) * np.sqrt(channel.dim))
    acc = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.linalg.norm(acc - np.eye(channel.dim)))


def realize_channel(rho: DensityOperator, rho_target: DensityOperator) -> KrausChannel:
    """Channel mapping every state (in particular ``rho``) to ``rho_target``.

    With spectral weights p_i and eigenvectors v_i of the target, the
    operators are E_ij = sqrt(p_i) |v_i><e_j| over the computational basis
    e_j, for the target's support levels only: its first ``_support_rank``
    eigenpairs, the weights above ``EIGEN_ZERO_TOL``.  So there are
    dim * rank operators, E_ij at index i * dim + j of ``operators``, and
    the dropped mass is at most dim * ``EIGEN_ZERO_TOL``.  The channel
    stores the factor A = V_r sqrt(p_r) (dim x rank) and builds the
    operators only when they are read.
    """
    if rho.dim != rho_target.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {rho_target.dim}")
    dec = spectral_decompose(rho_target)
    rank = _support_rank(dec.eigenvalues)
    factor = np.sqrt(dec.eigenvalues[:rank]) * dec.eigenvectors[:, :rank]
    factor.flags.writeable = False
    channel = object.__new__(KrausChannel)  # the operators are built on read
    object.__setattr__(channel, "_factor", factor)
    return channel


def apply_channel(channel: KrausChannel, rho) -> DensityOperator:
    """Apply sum_k E_k rho E_k^dagger; refuses channels whose completeness
    residual exceeds ``COMPLETENESS_TOL``.

    The output is validated as a density operator (Hermitian, unit trace,
    PSD), so a channel that barely passes the completeness gate can still
    be rejected at output validation if it fails to preserve the trace
    within the density-operator tolerance.
    """
    residual = completeness_residual(channel)
    if residual > COMPLETENESS_TOL:
        raise ValueError(
            f"channel is not trace preserving: completeness residual {residual:.3e} > {COMPLETENESS_TOL:.1e}"
        )
    m = as_matrix(rho)
    if m.shape != (channel.dim, channel.dim):
        raise ValueError(f"state shape {m.shape} does not match channel dimension {channel.dim}")
    if channel._factor is not None:
        # sum_ij E_ij rho E_ij^dagger = Tr(rho) A A^dagger
        a = channel._factor
        return DensityOperator(np.trace(m) * (a @ a.conj().T))
    out = np.zeros_like(m)
    for op in channel.operators:
        out += op @ m @ op.conj().T
    return DensityOperator(out)
