"""Single-mode radar detection scenario in the Fock (photon number) basis.

The no-target hypothesis is thermal-like background noise

    rho0 = (1 - n_b)|0><0| + n_b |k><k|,

and the target hypothesis mixes a reflected signal photon state into it,

    rho1 = (1 - x) rho0 + x |l><l|.

Everything is diagonal in the number basis, so the scenario doubles as an
analytically tractable commuting test bed.  Sweeps build the two states
once per signal level and report both counterfactual and genuine
(post-distortion) operating rates.  Both run one stacked Helstrom step
over the thresholds and one stacked attack step over every (price,
threshold) pair (``_sweep``): ``roc_sweep`` once over its grid,
``photon_sweep`` once per signal level.  Thresholds take the cost weights
of ``HypothesisPair.from_tau``, and every point is bit-identical to what
``helstrom_measurement`` and ``optimal_attack`` give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import _attack_stack, _attack_view, _check_price
from .detection import HypothesisPair, _cost_weights, _helstrom_stack
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


def _check_sweep(taus: np.ndarray, lambdas) -> tuple:
    """The cost weights (c0, c1) of a vector of thresholds and the distinct prices, ascending,
    under the rules of config's ``tau_grid`` and ``lambdas`` fields (thresholds with a finite c1/c0)."""
    for tau in taus.tolist():
        if not 0.0 < tau < math.inf:
            raise ValueError(f"threshold tau must be positive and finite, got {tau!r}")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("threshold grid must be strictly increasing")
    lams = [float(v) for v in lambdas]
    for lam in lams:
        _check_price(lam)
    return _cost_weights(taus), sorted(set(lams))


def _sweep(rho0: DensityOperator, rho1: DensityOperator, weights, lams: np.ndarray):
    """One Helstrom step over the thresholds' cost weights (c0, c1) and one attack
    step over (price, threshold): P_F and P_D per threshold, and the genuine
    P_D per [price, threshold].  rho0 is never distorted: its genuine P_F is P_F."""
    hel = _helstrom_stack(rho0.matrix, rho1.matrix, *weights)
    att = _attack_stack(_attack_view(rho1, hel.projectors), lams)
    return hel.p_false, hel.p_detect, att.genuine_p_detect


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

    The detector threshold ``tau`` is held fixed; the states and their
    risk-optimal projector are rebuilt for every ``l``.  Levels differ in
    dimension, so each gets its own Helstrom step at ``tau`` and attack
    step covering all prices at once.  Rows come back ordered by (lam, l).
    """
    weights, lams = _check_sweep(np.array([tau], dtype=float), lambdas)
    ls = [int(v) for v in l_values]
    if any(v < 0 for v in ls):
        raise ValueError("signal levels must be nonnegative")
    columns = []  # per level: l, mean photon number, P_D and the genuine P_D per price
    for l in sorted(set(ls)):
        rho0, rho1 = _radar_states(base.with_l(l))
        _, p_detect, genuine = _sweep(rho0, rho1, weights, np.array(lams))
        columns.append((l, mean_photon(rho1), float(p_detect[0]), genuine[:, 0].tolist()))
    return [
        PhotonSweepRow(l=l, mean_photon=nbar, lam=lam, p_detect=p_detect, genuine_p_detect=genuine[i])
        for i, lam in enumerate(lams)
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
    ascending order.  Cost weights at each threshold are those of
    ``HypothesisPair.from_tau``.

    After the two states are built, the sweep makes two decompositions
    in all: one stacked Helstrom step over the grid and one stacked
    attack step over every (price, threshold) pair.  Each point equals
    (``==``) ``helstrom_measurement`` and ``optimal_attack`` run on
    ``HypothesisPair.from_tau(rho0, rho1, tau)``.
    """
    grid = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("threshold grid must be a nonempty 1-d sequence")
    weights, lams = _check_sweep(grid, lambdas)

    p_false, p_detect, genuine_p_detect = _sweep(*_radar_states(params), weights, np.array(lams))
    taus, p_false, p_detect = grid.tolist(), p_false.tolist(), p_detect.tolist()
    curves = [RocCurve(lam=None, points=tuple(map(RocPoint, taus, p_false, p_detect, p_false, p_detect)))]
    for lam, genuine in zip(lams, genuine_p_detect.tolist()):
        curves.append(RocCurve(lam=lam, points=tuple(map(RocPoint, taus, p_false, p_detect, p_false, genuine))))
    return curves
