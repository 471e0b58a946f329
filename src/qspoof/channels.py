"""Kraus representations of the interceptor's state replacement.

Any fixed distortion rho -> rho' is a physical (completely positive,
trace-preserving) map; ``realize_channel`` constructs an explicit operator
set witnessing that.  Trace preservation is the completeness condition
sum_k E_k^dagger E_k = identity, measured in Frobenius norm by
``completeness_residual``.  A channel stores its k operators as one
read-only (k, d, d) array; the residual and the application sum them
one operator at a time, so they make no (k, d, d) temporary.
Construction does not enforce completeness, so deliberately broken
operator sets can be built and diagnosed; application does enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityOperator, as_matrix, spectral_decompose, _support_rank

# Channels whose completeness residual exceeds this are refused application.
COMPLETENESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered set of square operators of one shape defining a channel.
    ``operators`` is any iterable of matrices, a (k, d, d) array included;
    it is stored as one read-only (k, d, d) complex array, whose last axis
    is the dimension."""

    operators: np.ndarray

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

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def completeness_residual(channel: KrausChannel) -> float:
    """Frobenius distance of sum_k E_k^dagger E_k from the identity."""
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
    dim * rank operators, E_ij at index i * dim + j of one array filled
    by a single indexed assignment, and the dropped mass is at most
    dim * ``EIGEN_ZERO_TOL``.
    """
    if rho.dim != rho_target.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {rho_target.dim}")
    d = rho_target.dim
    dec = spectral_decompose(rho_target)
    rank = _support_rank(dec.eigenvalues)
    ops = np.zeros((rank, d, d, d), dtype=np.complex128)  # (i, j, row, column)
    j = np.arange(d)
    ops[:, j, :, j] = (np.sqrt(dec.eigenvalues[:rank]) * dec.eigenvectors[:, :rank]).T
    return KrausChannel(ops.reshape(rank * d, d, d))


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
    out = np.zeros_like(m)
    for op in channel.operators:
        out += op @ m @ op.conj().T
    return DensityOperator(out)
