"""Kraus representations of the interceptor's state replacement.

Any fixed distortion rho -> rho' is a physical (completely positive,
trace-preserving) map; ``realize_channel`` constructs an explicit operator
set witnessing that.  Trace preservation is the completeness condition
sum_k E_k^dagger E_k = identity, measured in Frobenius norm by
``completeness_residual``.  Construction does not enforce completeness, so
deliberately broken operator sets can be built and diagnosed; application
does enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityOperator, as_matrix, hermitian_part, spectral_decompose

# Channels whose completeness residual exceeds this are refused application.
COMPLETENESS_TOL = 1e-8
# Spectral weights at or below this are dropped from the realization.
WEIGHT_DROP_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered set of same-dimension operators defining a channel."""

    dim: int
    operators: tuple

    def __post_init__(self):
        if not self.operators:
            raise ValueError("a channel needs at least one operator")
        ops = []
        for idx, op in enumerate(self.operators):
            m = np.asarray(op, dtype=np.complex128)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"operator {idx} has shape {m.shape}, expected ({self.dim}, {self.dim})")
            if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
                raise ValueError(f"operator {idx} contains non-finite entries")
            m = m.copy()
            m.flags.writeable = False
            ops.append(m)
        object.__setattr__(self, "operators", tuple(ops))


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
    e_j; weights at or below ``WEIGHT_DROP_TOL`` are dropped, keeping the
    operator count at most dim * rank(rho_target).
    """
    if rho.dim != rho_target.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {rho_target.dim}")
    d = rho_target.dim
    dec = spectral_decompose(rho_target)
    ops = []
    for i, p in enumerate(dec.eigenvalues):
        if p <= WEIGHT_DROP_TOL:
            continue
        col = np.sqrt(p) * dec.eigenvectors[:, i]
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[:, j] = col
            ops.append(e)
    return KrausChannel(dim=d, operators=tuple(ops))


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
    return DensityOperator(hermitian_part(out))
