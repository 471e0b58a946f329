"""Single-mode radar detection scenario in the Fock (photon number) basis.

The no-target hypothesis is thermal-like background noise

    rho0 = (1 - n_b)|0><0| + n_b |k><k|,

and the target hypothesis mixes a reflected signal photon state into it,

    rho1 = (1 - x) rho0 + x |l><l|.

Everything is diagonal in the number basis, so the scenario doubles as an
analytically tractable commuting test bed.  Sweeps build the two states
once per signal level and report both counterfactual and genuine
(post-distortion) operating rates.  They run the stacked closed forms
that ``helstrom_measurement`` and ``optimal_attack`` wrap: ``roc_sweep``
solves its whole threshold grid in one Helstrom step and its whole
price x threshold grid in one attack step, and ``photon_sweep`` runs one
attack step per signal level over all of its prices.  Every point is
bit-identical to the one the scalar functions give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import _attack_stack, _attack_view, _check_price
from .detection import HypothesisPair, _cost_weights, _helstrom_stack, helstrom_measurement
from .operators import DensityOperator, as_matrix


@dataclass(frozen=True)
class RadarParams:
    """Background weight ``n_b``, signal weight ``x``, noise level ``k``, signal level ``l``."""

    n_b: float
    x: float
    k: int
    l: int

    def __post_init__(self):
        if not 0.0 <= self.n_b <= 1.0:
            raise ValueError(f"n_b must lie in [0, 1], got {self.n_b!r}")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {self.x!r}")
        if self.k < 0 or self.k != int(self.k):
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        if self.l < 0 or self.l != int(self.l):
            raise ValueError(f"l must be a nonnegative integer, got {self.l!r}")

    @property
    def dim(self) -> int:
        return max(self.k, self.l) + 1

    def with_l(self, l: int) -> "RadarParams":
        return RadarParams(self.n_b, self.x, self.k, l)


def _radar_states(params: RadarParams) -> tuple[DensityOperator, DensityOperator]:
    d = params.dim
    p0 = np.zeros(d)
    p0[0] += 1.0 - params.n_b
    p0[params.k] += params.n_b
    p1 = (1.0 - params.x) * p0
    p1[params.l] += params.x
    return DensityOperator.from_diagonal(p0), DensityOperator.from_diagonal(p1)


def build_radar_pair(params: RadarParams, c0: float, c1: float) -> HypothesisPair:
    """Number-basis hypothesis pair for the radar scenario.

    Coinciding levels (k = 0, or l inside {0, k}) are handled by summing
    the coefficients on the shared diagonal entry.
    """
    return HypothesisPair(*_radar_states(params), c0, c1)


def mean_photon(rho) -> float:
    """Expected photon number sum_n n rho_nn of a number-basis state."""
    m = as_matrix(rho)
    return float(np.dot(np.arange(m.shape[0]), np.diag(m).real))


def default_tau_grid(n: int = 60, lo: float = 1e-2, hi: float = 1e2) -> np.ndarray:
    """Logarithmically spaced threshold grid, 60 points in [1e-2, 1e2] by default."""
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _check_threshold(tau: float) -> None:
    """The threshold rule of config's ``tau`` fields: a finite positive number."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"threshold tau must be positive and finite, got {tau!r}")


@dataclass(frozen=True)
class PhotonSweepRow:
    """One signal-level sample: counterfactual and genuine detection rates."""

    l: int
    mean_photon: float
    lam: float
    p_detect: float
    genuine_p_detect: float


def photon_sweep(base: RadarParams, l_values, lambdas, tau: float) -> list[PhotonSweepRow]:
    """Detection rates across signal levels ``l`` for each distortion price.

    The detector threshold ``tau`` is held fixed; the hypothesis pair and
    its risk-optimal projector are rebuilt for every ``l`` (one
    ``helstrom_measurement`` each).  Levels differ in dimension, so each
    gets its own attack step, covering all prices at once.  Rows come
    back ordered by (lam, l).
    """
    _check_threshold(tau)
    lams = [float(v) for v in lambdas]
    for lam in lams:
        _check_price(lam)
    ls = [int(v) for v in l_values]
    if any(v < 0 for v in ls):
        raise ValueError("signal levels must be nonnegative")
    levels = sorted(set(ls))
    prices = np.array(sorted(set(lams)))
    solved = []
    for l in levels:
        pair = HypothesisPair.from_tau(*_radar_states(base.with_l(l)), tau)
        solved.append((l, pair, helstrom_measurement(pair)))
    columns = []  # per level: l, mean photon number, P_D and the genuine P_D per price
    for l, pair, hel in solved:
        att = _attack_stack(_attack_view(pair.rho1, hel.pi1.matrix[None]), prices)
        columns.append((l, mean_photon(pair.rho1), hel.p_detect, att.genuine_p_detect[:, 0].tolist()))
    return [
        PhotonSweepRow(l=l, mean_photon=nbar, lam=lam, p_detect=p_detect, genuine_p_detect=genuine[i])
        for i, lam in enumerate(prices.tolist())
        for l, nbar, p_detect, genuine in columns
    ]


@dataclass(frozen=True)
class RocPoint:
    """Operating point at one threshold, counterfactual and genuine."""

    tau: float
    p_false: float
    p_detect: float
    genuine_p_false: float
    genuine_p_detect: float


@dataclass(frozen=True)
class RocCurve:
    """Operating points over a threshold grid; ``lam`` is None when undistorted."""

    lam: float | None
    points: tuple

    def __post_init__(self):
        taus = [p.tau for p in self.points]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("thresholds must be strictly increasing along a curve")


def roc_sweep(params: RadarParams, lambdas, tau_grid=None) -> list[RocCurve]:
    """Receiver operating characteristic curves over a threshold grid.

    Returns one undistorted curve (``lam`` None, genuine rates equal the
    counterfactual ones) followed by one curve per distortion price in
    ascending order.  Cost weights at each threshold are c0 = 1/(1+tau),
    c1 = tau/(1+tau).

    After the two states are built, the sweep makes two decompositions
    in all: one stacked Helstrom step over the grid and one stacked
    attack step over every (price, threshold) pair.  Each point equals
    (``==``) ``helstrom_measurement`` and ``optimal_attack`` run on
    ``HypothesisPair.from_tau(rho0, rho1, tau)``.
    """
    grid = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("threshold grid must be a nonempty 1-d sequence")
    for tau in grid:
        _check_threshold(float(tau))
    if np.any(np.diff(grid) <= 0):
        raise ValueError("threshold grid must be strictly increasing")
    lams = sorted({float(v) for v in lambdas})
    for lam in lams:
        _check_price(lam)

    rho0, rho1 = _radar_states(params)
    # the threshold a pair from HypothesisPair.from_tau carries: c1/c0
    # after the round trip through the cost weights
    c0, c1 = _cost_weights(grid)
    hel = _helstrom_stack(rho0.matrix, rho1.matrix, c1 / c0)
    taus, p_false, p_detect = grid.tolist(), hel.p_false.tolist(), hel.p_detect.tolist()
    curves = [RocCurve(lam=None, points=tuple(map(RocPoint, taus, p_false, p_detect, p_false, p_detect)))]
    att = _attack_stack(_attack_view(rho1, hel.projectors), np.array(lams))
    for lam, genuine in zip(lams, att.genuine_p_detect.tolist()):
        # rho0 is never distorted: the genuine false-alarm rate is P_F
        curves.append(RocCurve(lam=lam, points=tuple(map(RocPoint, taus, p_false, p_detect, p_false, genuine))))
    return curves
