"""Single-mode radar detection scenario in the Fock (photon number) basis.

The no-target hypothesis is thermal-like background noise

    rho0 = (1 - n_b)|0><0| + n_b |k><k|,

and the target hypothesis mixes a reflected signal photon state into it,

    rho1 = (1 - x) rho0 + x |l><l|.

Everything is diagonal in the number basis, so the scenario doubles as an
analytically tractable commuting test bed.  The model is written once,
in ``_radar_stack``: both states at every signal level asked for,
zero-padded to one dimension and checked as one stack (one ``eigh``,
whose spectra give rho1's support charts).  Sweeps report both
counterfactual and genuine (post-distortion) operating rates, each from
one stacked Helstrom step and stacked attack steps, with
``optimal_attack``'s view builder (``_attack_view``): ``roc_sweep`` over
its threshold grid on one pair, attacking once per (price, distinct
projector), since the projector is piecewise constant in the threshold;
``photon_sweep`` over all its signal levels at once.  Thresholds take
the cost weights of ``HypothesisPair.from_tau``, and every point is
bit-identical to what ``helstrom_measurement`` and ``optimal_attack``
give.  ROC curves are columns (``RocCurve``): the curves of one sweep
hold the same threshold, P_F and P_D tuples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .adversary import _attack_stack, _attack_view, _check_price
from .detection import HypothesisPair, _cost_weights, _helstrom_stack, _number
from .operators import DensityOperator, as_matrix, _checked_states, _support_rank


def _check_level(name: str, value) -> None:
    """The rule of config's ``k``, ``l`` and ``l_values`` fields: a nonnegative
    integer (a numpy integer too), never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


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
        _check_level("k", self.k)
        _check_level("l", self.l)


def _radar_stack(base: RadarParams, levels: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho0 and rho1 at each signal level of ``levels``, indexed [hypothesis, level],
    zero-padded to the largest level's dimension and checked as one stack
    (``_checked_states``'s matrices, descending spectra and eigenvectors)."""
    n, d = len(levels), max(base.k, *levels) + 1
    p = np.zeros((2, n, d))
    p[0, :, 0] += 1.0 - base.n_b
    p[0, :, base.k] += base.n_b
    p[1] = (1.0 - base.x) * p[0]
    p[1, np.arange(n), levels] += base.x
    states = np.zeros((2, n, d, d), dtype=np.complex128)
    states.reshape((2, n, d * d))[..., :: d + 1] = p
    return _checked_states(states)


def build_radar_pair(params: RadarParams, c0: float, c1: float) -> HypothesisPair:
    """Number-basis hypothesis pair for the radar scenario.

    Coinciding levels (k = 0, or l inside {0, k}) are handled by summing
    the coefficients on the shared diagonal entry.
    """
    m, w, x = _radar_stack(params, [params.l])
    return HypothesisPair(*(DensityOperator._from_spectrum(m[i, 0], w[i, 0], x[i, 0]) for i in range(2)), c0, c1)


def mean_photon(rho) -> float:
    """Expected photon number sum_n n rho_nn of a number-basis state."""
    m = as_matrix(rho)
    return float(np.dot(np.arange(m.shape[0]), np.diag(m).real))


def default_tau_grid() -> np.ndarray:
    """Logarithmically spaced threshold grid, 60 points in [1e-2, 1e2]."""
    return np.logspace(-2.0, 2.0, 60)


def _check_sweep(taus: list, lambdas) -> tuple:
    """The thresholds as floats with their cost weights (c0, c1), and the distinct prices, ascending,
    under the rules of config's ``tau_grid`` and ``lambdas`` fields.  A threshold is a real number,
    never a bool, converted once (``_number``), positive and finite, with a finite c1/c0."""
    grid = np.array([_number(tau, "threshold tau") for tau in taus])
    bad = ~((grid > 0.0) & (grid < math.inf))
    if bad.any():
        raise ValueError(f"threshold tau must be positive and finite, got {taus[int(np.argmax(bad))]!r}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("threshold grid must be strictly increasing")
    return grid, _cost_weights(grid), sorted(set(map(_check_price, lambdas)))


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
    risk-optimal projector change with ``l``.  Every level's two states
    are zero-padded to the largest level's dimension and pass the state
    checks as one stack (one ``eigh``, whose spectra give rho1's support
    charts).  One Helstrom step at ``tau`` covers every level, and one
    attack step covers all prices and every level whose rho1 has the
    same support rank.  Rows come back ordered by (lam, l).
    """
    _, weights, lams = _check_sweep([tau], lambdas)
    if not lams:
        raise ValueError("lambdas must be a nonempty sequence of distortion prices")
    levels = list(l_values)
    if not levels:
        raise ValueError("l_values must be a nonempty sequence of signal levels")
    for i, l in enumerate(levels):
        _check_level(f"l_values[{i}]", l)
    ls = sorted(set(map(int, levels)))
    dims = [max(base.k, l) + 1 for l in ls]
    states, w, x = _radar_stack(base, ls)

    hel = _helstrom_stack(states[0], states[1], *weights)
    genuine = np.empty((len(lams), len(ls)))
    ranks = _support_rank(w[1])
    for k in sorted(set(ranks.tolist())):
        at = ranks == k
        view = _attack_view(w[1, at], x[1, at], hel.projectors[at])
        genuine[:, at] = _attack_stack(view, np.array(lams)).genuine_p_detect
    # each level's own block, copied so that its dot product runs as on the
    # level's lone state (a dot over the padded row can move the last bit)
    nbar = [mean_photon(states[1, j, :m, :m].copy()) for j, m in enumerate(dims)]
    p_detect, genuine = hel.p_detect.tolist(), genuine.tolist()
    return [
        PhotonSweepRow(l=l, mean_photon=nbar[j], lam=lam, p_detect=p_detect[j], genuine_p_detect=genuine[i][j])
        for i, lam in enumerate(lams)
        for j, l in enumerate(ls)
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
    """Operating rates over a threshold grid as columns of floats, one entry per
    threshold; ``lam`` is None when undistorted.  Genuine P_F is ``p_false``:
    rho0 is never distorted."""

    lam: float | None
    tau: tuple
    p_false: tuple
    p_detect: tuple
    genuine_p_detect: tuple

    def __post_init__(self):
        if not len(self.tau) == len(self.p_false) == len(self.p_detect) == len(self.genuine_p_detect):
            raise ValueError("a curve's columns must have one length")
        if any(b <= a for a, b in zip(self.tau, self.tau[1:])):
            raise ValueError("thresholds must be strictly increasing along a curve")

    @property
    def points(self) -> tuple:
        """The curve's ``RocPoint`` per threshold, built on each read."""
        return tuple(map(RocPoint, self.tau, self.p_false, self.p_detect, self.p_false, self.genuine_p_detect))


def roc_sweep(params: RadarParams, lambdas, tau_grid=None) -> list[RocCurve]:
    """Receiver operating characteristic curves over a threshold grid.

    Returns one undistorted curve (``lam`` None, genuine rates equal the
    counterfactual ones) followed by one curve per distortion price in
    ascending order.  Cost weights at each threshold are those of
    ``HypothesisPair.from_tau``.

    The sweep makes three decompositions in all: one that checks the two
    states as a stack, one stacked Helstrom step over the grid and one
    stacked attack step over every (price, distinct projector) pair.
    Thresholds whose projectors agree to the byte share their attack
    points, mapped back to each threshold; the radar pair's projector is
    piecewise constant in tau, so a grid holds few distinct ones.  A
    stacked point does not depend on the rest of its stack, so each point
    equals (``==``) ``helstrom_measurement`` and ``optimal_attack`` run on
    ``HypothesisPair.from_tau(rho0, rho1, tau)``.
    """
    grid = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=object)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("threshold grid must be a nonempty 1-d sequence")
    grid, weights, lams = _check_sweep(grid.tolist(), lambdas)

    m, w, x = _radar_stack(params, [params.l])
    hel = _helstrom_stack(m[0, 0], m[1, 0], *weights)
    # thresholds grouped by their projector's exact bytes (== would merge -0.0 and 0.0)
    keys = hel.projectors.reshape(len(grid), -1).view(np.dtype((np.void, hel.projectors[0].nbytes)))
    _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    att = _attack_stack(_attack_view(w[1, 0], x[1, 0], hel.projectors[first]), np.array(lams))
    taus, p_false, p_detect = (tuple(c.tolist()) for c in (grid, hel.p_false, hel.p_detect))
    genuine = [p_detect, *map(tuple, att.genuine_p_detect[:, inverse].tolist())]
    return [RocCurve(lam, taus, p_false, p_detect, g) for lam, g in zip([None, *lams], genuine)]
