"""Binary quantum hypothesis testing with projective measurements.

A detector weighs hypothesis H1 (state ``rho1``, prior cost ``c1``) against
H0 (state ``rho0``, prior cost ``c0``) and announces H1 on the outcome of a
projector ``Pi1``.  The risk-optimal choice projects onto the strictly
positive eigenspace of ``rho1 - tau*rho0`` with threshold ``tau = c1/c0``.
Randomized decision rules are out of scope; only projector-valued choices
are represented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    EIGEN_ZERO_TOL,
    hermitian_part,
    require_hermitian,
    spectral_decompose,
    trace_product,
    _read_only,
)

# Tolerance on ||Pi^2 - Pi||_F when validating a projector.
IDEMPOTENCY_TOL = 1e-9
# Allowed deviation of computed rates from the interval [0, 1].
RATE_TOL = 1e-10
PRIOR_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectorMeasurement:
    """Orthogonal projector announcing hypothesis H1, with its rank."""

    matrix: np.ndarray
    rank: int | None = None

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        dev = float(np.linalg.norm(m @ m - m))
        if dev > IDEMPOTENCY_TOL:
            raise ValueError(f"not a projector: ||Pi^2 - Pi||_F = {dev:.3e}")
        tr = float(np.trace(m).real)
        if self.rank is None:
            object.__setattr__(self, "rank", round(tr))
        if abs(tr - self.rank) > IDEMPOTENCY_TOL:
            raise ValueError(f"rank {self.rank} does not match trace {tr!r}")
        object.__setattr__(self, "matrix", _read_only(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "ProjectorMeasurement":
        return cls(np.zeros((dim, dim), dtype=np.complex128), 0)

    @classmethod
    def identity(cls, dim: int) -> "ProjectorMeasurement":
        return cls(np.eye(dim, dtype=np.complex128), dim)

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "ProjectorMeasurement":
        """Projector onto the span of orthonormal columns."""
        v = np.asarray(columns, dtype=np.complex128)
        return cls(hermitian_part(v @ v.conj().T), v.shape[1])


def check_cost_weights(c0: float, c1: float) -> None:
    """Raise ValueError unless the weights obey the rule stated on :class:`HypothesisPair`."""
    if c0 < 0 or c1 < 0:
        raise ValueError("cost weights must be nonnegative")
    if abs(c0 + c1 - 1.0) > PRIOR_SUM_TOL:
        raise ValueError(f"cost weights must sum to 1, got {c0 + c1!r}")
    if c0 == 0:
        raise ValueError("c0 must be positive so the threshold c1/c0 is finite")


@dataclass(frozen=True, eq=False)
class HypothesisPair:
    """The two candidate states with their Bayes cost weights.

    ``c0`` and ``c1`` are nonnegative, sum to one within ``PRIOR_SUM_TOL``,
    and ``c0 > 0`` so the threshold ``tau = c1/c0`` is finite.
    """

    rho0: DensityOperator
    rho1: DensityOperator
    c0: float
    c1: float

    def __post_init__(self):
        if self.rho0.dim != self.rho1.dim:
            raise ValueError(f"dimension mismatch: {self.rho0.dim} vs {self.rho1.dim}")
        check_cost_weights(self.c0, self.c1)

    @property
    def dim(self) -> int:
        return self.rho0.dim

    @property
    def tau(self) -> float:
        return self.c1 / self.c0

    @classmethod
    def from_tau(cls, rho0: DensityOperator, rho1: DensityOperator, tau: float) -> "HypothesisPair":
        """Pair with cost weights c0 = 1/(1+tau), c1 = tau/(1+tau)."""
        if tau < 0:
            raise ValueError("threshold must be nonnegative")
        return cls(rho0, rho1, 1.0 / (1.0 + tau), tau / (1.0 + tau))


@dataclass(frozen=True, eq=False)
class HelstromResult:
    """Risk-optimal projector with the full spectrum of rho1 - tau*rho0."""

    pi1: ProjectorMeasurement
    eigenvalues: np.ndarray
    p_detect: float
    p_false: float
    bayes_risk: float


def _checked_rate(t: float) -> float:
    if t < -RATE_TOL or t > 1.0 + RATE_TOL:
        raise ValueError(f"rate {t!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, t))


def rates(pi1, rho1, rho0) -> tuple[float, float]:
    """Detection and false-alarm probabilities (Tr Pi1 rho1, Tr Pi1 rho0)."""
    p_detect = _checked_rate(trace_product(pi1, rho1))
    p_false = _checked_rate(trace_product(pi1, rho0))
    return p_detect, p_false


def bayes_risk(pi1, pair: HypothesisPair) -> float:
    """Expected cost c1 (1 - P_D) + c0 P_F of announcing via ``pi1``."""
    p_detect, p_false = rates(pi1, pair.rho1, pair.rho0)
    return pair.c1 * (1.0 - p_detect) + pair.c0 * p_false


def helstrom_measurement(pair: HypothesisPair, eig_tol: float = EIGEN_ZERO_TOL) -> HelstromResult:
    """Risk-optimal projector onto the strictly positive eigenspace of rho1 - tau*rho0.

    Eigenvalues in ``[-eig_tol, eig_tol]`` are treated as zero and excluded,
    which resolves ties at zero in favor of announcing H0.
    """
    tau = pair.tau
    dec = spectral_decompose(pair.rho1.matrix - tau * pair.rho0.matrix)
    keep = dec.eigenvalues > eig_tol
    pi1 = ProjectorMeasurement.from_columns(dec.eigenvectors[:, keep])
    p_detect, p_false = rates(pi1, pair.rho1, pair.rho0)
    risk = pair.c1 * (1.0 - p_detect) + pair.c0 * p_false
    return HelstromResult(pi1, dec.eigenvalues, p_detect, p_false, risk)


def sample_outcomes(rho, pi1, n: int, seed: int) -> tuple[int, int]:
    """Simulate ``n`` independent measurements of ``pi1`` on ``rho``.

    Each trial announces H1 with the Born probability Tr(Pi1 rho);
    the draw is reproducible through ``numpy.random.default_rng(seed)``.

    Returns
    -------
    (hits, trials) : tuple of int
        Number of H1 announcements and the number of trials.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    p = _checked_rate(trace_product(pi1, rho))
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(n, p))
    return hits, n
