"""Binary quantum hypothesis testing with projective measurements.

A detector weighs hypothesis H1 (state ``rho1``, prior cost ``c1``) against
H0 (state ``rho0``, prior cost ``c0``) and announces H1 on the outcome of a
projector ``Pi1``.  The risk-optimal choice projects onto the strictly
positive eigenspace of ``rho1 - tau*rho0`` with threshold ``tau = c1/c0``.
Randomized decision rules are out of scope; only projector-valued choices
are represented.

The threshold convention lives only here: ``_threshold`` (weights to tau,
which must be finite), ``_cost_weights`` (tau to weights) and ``_risk``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import (
    DensityOperator,
    as_matrix,
    trace_product,
    _read_only,
    _require_hermitian,
    _sort_descending,
    _support_rank,
    _traces,
)

# Tolerance on ||Pi^2 - Pi||_F when validating a projector.
IDEMPOTENCY_TOL = 1e-9
# Allowed deviation of computed rates from the interval [0, 1].
RATE_TOL = 1e-10
PRIOR_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectorMeasurement:
    """Orthogonal projector announcing hypothesis H1, with its rank (the
    rounded trace, derived from the matrix)."""

    matrix: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        m, rank = _check_projectors(as_matrix(self.matrix))
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "rank", int(rank))

    @classmethod
    def _from_checked(cls, matrix: np.ndarray, rank: int) -> "ProjectorMeasurement":
        """A projector whose matrix has passed ``_check_projectors`` with ``rank``."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "matrix", _read_only(matrix))
        object.__setattr__(pi, "rank", rank)
        return pi

    @classmethod
    def zero(cls, dim: int) -> "ProjectorMeasurement":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "ProjectorMeasurement":
        """Projector onto the span of orthonormal columns."""
        v = np.asarray(columns, dtype=np.complex128)
        return cls(v @ v.conj().T)


def _check_projectors(m: np.ndarray, ranks=None) -> tuple[np.ndarray, np.ndarray]:
    """The projector checks over a stack (last two axes): Hermiticity and
    finiteness, ``||Pi^2 - Pi||_F <= IDEMPOTENCY_TOL``, and each rank
    against its trace.

    ``ranks`` defaults to each trace rounded to the nearest integer.
    Returns the symmetrized stack and the ranks.
    """
    m = _require_hermitian(m)
    dev = np.linalg.norm(m @ m - m, axis=(-2, -1))
    if (dev > IDEMPOTENCY_TOL).any():
        raise ValueError(f"not a projector: ||Pi^2 - Pi||_F = {float(dev.max()):.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    ranks = np.rint(tr).astype(int) if ranks is None else np.asarray(ranks)
    off = np.abs(tr - ranks) > IDEMPOTENCY_TOL
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"rank {np.ravel(ranks)[i]} does not match trace {float(np.ravel(tr)[i])!r}")
    return m, ranks


def _number(value, name: str) -> float:
    """``value`` as a float: a real number, never a bool; an int beyond float range reads as +-inf."""
    # float and int are Reals; naming them first skips the slower ABC check for them
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _threshold(c0, c1):
    """The threshold tau = c1/c0 of cost weights, or of arrays of them; each must be finite."""
    with np.errstate(all="ignore"):  # a zero or tiny c0 overflows
        tau = np.divide(c1, c0)
    finite = np.isfinite(tau)
    if not finite.all():
        c0, c1 = (float(np.ravel(c)[np.argmin(finite)]) for c in (c0, c1))
        raise ValueError(f"threshold c1/c0 must be finite, got c0={c0!r}, c1={c1!r}")
    return tau


def _cost_weights(tau):
    """Cost weights c0 = 1/(1+tau), c1 = tau/(1+tau) of a threshold, or of an array of them, checked."""
    c0, c1 = 1.0 / (1.0 + tau), tau / (1.0 + tau)
    _threshold(c0, c1)
    return c0, c1


def _risk(c0, c1, p_detect, p_false):
    """The Bayes risk c1 (1 - P_D) + c0 P_F, of numbers or of arrays of them."""
    return c1 * (1.0 - p_detect) + c0 * p_false


def check_cost_weights(c0: float, c1: float) -> None:
    """Raise ValueError unless the weights obey the rule stated on :class:`HypothesisPair`.

    Each weight is read through ``_number``: a bool is refused, and an int
    beyond float range fails the finiteness rule, not the conversion.
    """
    x0, x1 = _number(c0, "cost weight c0"), _number(c1, "cost weight c1")
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"cost weights must be finite, got c0={c0!r}, c1={c1!r}")
    if x0 < 0 or x1 < 0:
        raise ValueError("cost weights must be nonnegative")
    if abs(x0 + x1 - 1.0) > PRIOR_SUM_TOL:
        raise ValueError(f"cost weights must sum to 1, got {c0 + c1!r}")
    _threshold(x0, x1)


@dataclass(frozen=True, eq=False)
class HypothesisPair:
    """The two candidate states with their Bayes cost weights.

    ``c0`` and ``c1`` are finite and nonnegative, sum to one within ``PRIOR_SUM_TOL``,
    and the threshold ``tau = c1/c0`` is finite (``_threshold``).
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
    def tau(self) -> float:
        return float(_threshold(self.c0, self.c1))

    @classmethod
    def from_tau(cls, rho0: DensityOperator, rho1: DensityOperator, tau: float) -> "HypothesisPair":
        """Pair with cost weights c0 = 1/(1+tau), c1 = tau/(1+tau)."""
        tau = _number(tau, "threshold tau")
        if tau < 0:
            raise ValueError("threshold must be nonnegative")
        return cls(rho0, rho1, *_cost_weights(tau))


@dataclass(frozen=True, eq=False)
class HelstromResult:
    """Risk-optimal projector with the full spectrum of rho1 - tau*rho0."""

    pi1: ProjectorMeasurement
    eigenvalues: np.ndarray
    p_detect: float
    p_false: float
    bayes_risk: float


def _checked_rates(t: np.ndarray) -> np.ndarray:
    """Rates checked to lie in [0, 1] within ``RATE_TOL`` (a NaN does not), then clamped to it."""
    inside = (t >= -RATE_TOL) & (t <= 1.0 + RATE_TOL)
    if not inside.all():
        bad = float(np.ravel(t)[int(np.argmin(inside))])
        raise ValueError(f"rate {bad!r} outside [0, 1] beyond tolerance")
    # adding +0.0 turns a clamped -0.0 into +0.0 and leaves every other value as it is
    return np.minimum(np.maximum(t, 0.0), 1.0) + 0.0


def _checked_rate(t: float) -> float:
    return float(_checked_rates(np.asarray(t)))


def rates(pi1, rho1, rho0) -> tuple[float, float]:
    """Detection and false-alarm probabilities (Tr Pi1 rho1, Tr Pi1 rho0)."""
    p_detect = _checked_rate(trace_product(pi1, rho1))
    p_false = _checked_rate(trace_product(pi1, rho0))
    return p_detect, p_false


def bayes_risk(pi1, pair: HypothesisPair) -> float:
    """Expected cost c1 (1 - P_D) + c0 P_F of announcing via ``pi1``."""
    return _risk(pair.c0, pair.c1, *rates(pi1, pair.rho1, pair.rho0))


class _HelstromStack(NamedTuple):
    """Risk-optimal projectors for a stack of (pair, threshold) points, indexed by point."""

    projectors: np.ndarray  # (N, d, d), checked by _check_projectors
    ranks: np.ndarray
    eigenvalues: np.ndarray  # (N, d), each spectrum of rho1 - tau*rho0 descending
    p_detect: np.ndarray
    p_false: np.ndarray
    bayes_risk: np.ndarray


def _helstrom_stack(rho0: np.ndarray, rho1: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> _HelstromStack:
    """The risk-optimal projector of ``rho1 - tau*rho0`` and its Bayes risk for each cost weight pair.

    ``c0`` and ``c1`` are vectors of weights and ``rho0`` and ``rho1`` the
    two states' matrices or stacks of them; the two broadcast against each
    other: N weight pairs on one pair of states, one weight pair on N pairs
    of states, or N of each.  One ``eigh`` call decomposes
    the whole stack; each projector is built from its kept (leading)
    eigenvector columns, with one matrix product per distinct rank, and
    the stack then passes the projector and rate checks.  A point's result
    is bit-identical whether it is solved alone or in a stack.
    """
    taus = _threshold(c0, c1)
    a = _require_hermitian(rho1 - taus[:, None, None] * rho0)
    w, x = _sort_descending(*np.linalg.eigh(a))
    ranks = _support_rank(w)
    proj = np.empty_like(a)
    for k in set(ranks.tolist()):
        sel = ranks == k
        cols = x[sel, :, :k]
        proj[sel] = cols @ cols.conj().swapaxes(-1, -2)
    proj, ranks = _check_projectors(proj, ranks)
    p_detect = _checked_rates(_traces(proj, rho1))
    p_false = _checked_rates(_traces(proj, rho0))
    return _HelstromStack(proj, ranks, w, p_detect, p_false, _risk(c0, c1, p_detect, p_false))


def helstrom_measurement(pair: HypothesisPair) -> HelstromResult:
    """Risk-optimal projector onto the strictly positive eigenspace of rho1 - tau*rho0.

    Eigenvalues in ``[-EIGEN_ZERO_TOL, EIGEN_ZERO_TOL]`` are treated as
    zero and excluded, which resolves ties at zero in favor of announcing
    H0.  This is the stacked Helstrom step (the one ``roc_sweep`` runs
    over its threshold grid) with a stack of one.
    """
    hel = _helstrom_stack(pair.rho0.matrix, pair.rho1.matrix, np.array([pair.c0]), np.array([pair.c1]))
    pi1 = ProjectorMeasurement._from_checked(hel.projectors[0], int(hel.ranks[0]))
    risk = float(hel.bayes_risk[0])
    return HelstromResult(pi1, _read_only(hel.eigenvalues[0]), float(hel.p_detect[0]), float(hel.p_false[0]), risk)


def sample_outcomes(rho, pi1, n: int, seed: int) -> tuple[int, int]:
    """Simulate ``n`` independent measurements of ``pi1`` on ``rho``.

    Each trial announces H1 with the Born probability Tr(Pi1 rho);
    the draw is reproducible through ``numpy.random.default_rng(seed)``.
    ``n`` is an integer (a numpy integer too, never a bool) from 1 to
    the int64 maximum.

    Returns
    -------
    (hits, trials) : tuple of int
        Number of H1 announcements and the number of trials.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= np.iinfo(np.int64).max:
        raise ValueError(f"trial count n must be an integer from 1 to 2**63 - 1, got {n!r}")
    p = _checked_rate(trace_product(pi1, rho))
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(n, p))
    return hits, int(n)
