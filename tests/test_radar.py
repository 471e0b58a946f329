"""Photon-number radar scenario: state construction, ROC and signal sweeps."""

import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from qspoof import (
    DensityOperator,
    HypothesisPair,
    PhotonSweepRow,
    RadarParams,
    RocCurve,
    build_radar_pair,
    default_tau_grid,
    detection_bounds,
    helstrom_measurement,
    mean_photon,
    optimal_attack,
    photon_sweep,
    roc_sweep,
)
from qspoof import radar
from qspoof.adversary import BOUND_TOL
from qspoof.config import load_config

DATA = Path(__file__).parent / "data"

REF = RadarParams(n_b=0.4, x=0.9, k=1, l=2)


# ---------------------------------------------------------------- states

def test_reference_pair_diagonals():
    pair = build_radar_pair(REF, c0=0.5, c1=0.5)
    assert np.allclose(np.diag(pair.rho0.matrix).real, [0.6, 0.4, 0.0], atol=1e-14)
    assert np.allclose(np.diag(pair.rho1.matrix).real, [0.06, 0.04, 0.9], atol=1e-14)
    assert np.allclose(pair.rho0.matrix, np.diag(np.diag(pair.rho0.matrix)))


def test_k_zero_collapses_background_to_vacuum():
    pair = build_radar_pair(RadarParams(n_b=0.4, x=0.9, k=0, l=2), c0=0.5, c1=0.5)
    assert np.allclose(np.diag(pair.rho0.matrix).real, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(np.diag(pair.rho1.matrix).real, [0.1, 0.0, 0.9], atol=1e-14)


def test_l_equals_k_overlapping_signal():
    pair = build_radar_pair(RadarParams(n_b=0.4, x=0.9, k=1, l=1), c0=0.5, c1=0.5)
    assert np.allclose(np.diag(pair.rho1.matrix).real, [0.06, 0.94], atol=1e-14)


def _lone_states(params):
    """rho0 and rho1 of the model, each built and checked on its own."""
    p0 = np.zeros(max(params.k, params.l) + 1)
    p0[0] += 1.0 - params.n_b
    p0[params.k] += params.n_b
    p1 = (1.0 - params.x) * p0
    p1[params.l] += params.x
    return DensityOperator.from_diagonal(p0), DensityOperator.from_diagonal(p1)


def test_radar_pair_equals_its_states_built_alone():
    # the pair's states come out of one checked stack; matrices and spectra
    # are the ones each state gets from its own constructor, to the bit
    rng = np.random.default_rng(5)
    grid = [RadarParams(n_b, x, k, l) for n_b in (0.0, 1.0) for x in (0.0, 1.0) for k in (0, 2) for l in (0, 2, 3)]
    for _ in range(40):
        grid.append(RadarParams(rng.uniform(), rng.uniform(), int(rng.integers(0, 7)), int(rng.integers(0, 9))))
    for params in grid:
        pair = build_radar_pair(params, 0.5, 0.5)
        for got, want in zip((pair.rho0, pair.rho1), _lone_states(params)):
            assert np.array_equal(got.matrix, want.matrix)
            assert np.array_equal(got.spectrum.eigenvalues, want.spectrum.eigenvalues)
            assert np.array_equal(got.spectrum.eigenvectors, want.spectrum.eigenvectors)


def test_dim_covers_both_levels():
    assert build_radar_pair(RadarParams(n_b=0.1, x=0.5, k=5, l=2), 0.5, 0.5).rho0.dim == 6
    assert build_radar_pair(RadarParams(n_b=0.1, x=0.5, k=1, l=7), 0.5, 0.5).rho0.dim == 8


def test_params_validation():
    with pytest.raises(ValueError):
        RadarParams(n_b=1.5, x=0.5, k=1, l=2)
    with pytest.raises(ValueError):
        RadarParams(n_b=0.4, x=-0.1, k=1, l=2)
    with pytest.raises(ValueError):
        RadarParams(n_b=0.4, x=0.5, k=-1, l=2)


@pytest.mark.parametrize("field", ["k", "l"])
@pytest.mark.parametrize("value", [2.0, 2.5, True, -1])
def test_params_reject_a_level_that_is_not_a_nonnegative_integer(field, value):
    # a float such as 2.0 used to build and then fail inside np.zeros
    levels = {"k": 1, "l": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a nonnegative integer, got {value!r}$"):
        RadarParams(n_b=0.4, x=0.5, **levels)


@pytest.mark.parametrize("field", ["n_b", "x"])
@pytest.mark.parametrize("value", [True, "0.4", None])
def test_params_reject_a_weight_that_is_not_a_real_number(field, value):
    # a bool used to pass as 0 or 1, and a string to fail in the range comparison with a TypeError
    weights = {"n_b": 0.4, "x": 0.5, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
        RadarParams(k=1, l=2, **weights)


def test_params_accept_numpy_integers():
    params = RadarParams(n_b=0.4, x=0.5, k=np.int64(3), l=np.int32(5))
    assert build_radar_pair(params, 0.5, 0.5).rho0.dim == 6


def test_mean_photon_values():
    pair = build_radar_pair(REF, c0=0.5, c1=0.5)
    assert abs(mean_photon(pair.rho0) - 0.4) <= 1e-14       # n_b * k
    assert abs(mean_photon(pair.rho1) - 1.84) <= 1e-14      # 0.04*1 + 0.9*2


def test_diagonal_pair_matches_classical_likelihood_ratio():
    pair = build_radar_pair(REF, c0=0.5, c1=0.5)
    p0 = np.diag(pair.rho0.matrix).real
    p1 = np.diag(pair.rho1.matrix).real
    for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
        res = helstrom_measurement(
            HypothesisPair.from_tau(pair.rho0, pair.rho1, tau=tau)
        )
        accept = p1 > tau * p0
        assert abs(res.p_detect - p1[accept].sum()) <= 1e-12
        assert abs(res.p_false - p0[accept].sum()) <= 1e-12


# ---------------------------------------------------------------- photon sweep

def expected_photon_rates(params, lam, tau=1.0):
    """Scalar rates for the diagonal radar family at threshold tau."""
    pair = build_radar_pair(params, c0=0.5, c1=0.5)
    p0 = np.diag(pair.rho0.matrix).real
    p1 = np.diag(pair.rho1.matrix).real
    accept = p1 > tau * p0
    pd = p1[accept].sum()
    scaled = p1 * np.where(accept, math.exp(-1.0 / lam), 1.0)
    return float(pd), float(scaled[accept].sum() / scaled.sum())


def test_photon_sweep_matches_scalar_formula():
    rows = photon_sweep(REF, l_values=range(0, 6), lambdas=[0.5, 1.0, 2.0], tau=1.0)
    for row in rows:
        pd, gpd = expected_photon_rates(RadarParams(REF.n_b, REF.x, REF.k, row.l), row.lam)
        assert abs(row.p_detect - pd) <= 1e-12
        assert abs(row.genuine_p_detect - gpd) <= 1e-12


def test_photon_sweep_reference_values():
    # analytic plateau: for l not in {0, k} the signal level never moves the
    # accepted weight, so every such l shares one genuine rate; l = 0 and
    # l = k pick up the background overlap instead
    rows = photon_sweep(REF, l_values=range(0, 6), lambdas=[1.0], tau=1.0)
    got = [row.genuine_p_detect for row in sorted(rows, key=lambda r: r.l)]

    def q(a):
        return a * math.exp(-1.0) / (1 - a + a * math.exp(-1.0))

    want = [q(0.96), q(0.94), q(0.9), q(0.9), q(0.9), q(0.9)]
    assert np.allclose(got, want, atol=1e-12)
    assert abs(got[0] - 0.898261353558908) <= 1e-12
    assert abs(got[1] - 0.8521463451921157) <= 1e-12
    assert abs(got[2] - 0.7680306833159262) <= 1e-12


def test_photon_sweep_ordering_and_mean_photons():
    rows = photon_sweep(REF, l_values=[2, 0, 1], lambdas=[2.0, 0.5], tau=1.0)
    keys = [(row.lam, row.l) for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        pair = build_radar_pair(RadarParams(REF.n_b, REF.x, REF.k, row.l), c0=0.5, c1=0.5)
        assert abs(row.mean_photon - mean_photon(pair.rho1)) <= 1e-14


def test_photon_sweep_monotone_in_lambda():
    rows = photon_sweep(REF, l_values=[3], lambdas=[0.2, 0.5, 1.0, 2.0, 8.0], tau=1.0)
    vals = [row.genuine_p_detect for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "levels,i", [([2.7, 1.2], 0), ([True], 0), ([0, 2.0], 1), ([1, -1], 1)], ids=["fraction", "bool", "float", "negative"]
)
def test_photon_sweep_rejects_a_level_that_is_not_a_nonnegative_integer(levels, i):
    # 2.7 and 1.2 used to run truncated, as l = 2 and l = 1
    with pytest.raises(ValueError, match=rf"^l_values\[{i}\] must be a nonnegative integer, got {levels[i]!r}$"):
        photon_sweep(REF, levels, [1.0], tau=1.0)


def test_photon_sweep_accepts_numpy_integer_levels():
    rows = photon_sweep(REF, np.arange(3), [1.0], tau=1.0)
    assert rows == photon_sweep(REF, [0, 1, 2], [1.0], tau=1.0)
    assert all(type(row.l) is int for row in rows)


def test_photon_sweep_rejects_no_levels():
    with pytest.raises(ValueError, match="^l_values must be a nonempty sequence of signal levels$"):
        photon_sweep(REF, [], [1.0], tau=1.0)


def test_photon_sweep_rejects_no_prices():
    with pytest.raises(ValueError, match="^lambdas must be a nonempty sequence of distortion prices$"):
        photon_sweep(REF, [1, 2], [], tau=1.0)


def test_photon_sweep_large_lambda_recovers_counterfactual():
    rows = photon_sweep(REF, l_values=[2], lambdas=[1e9], tau=1.0)
    assert abs(rows[0].genuine_p_detect - rows[0].p_detect) <= 1e-8


# ---------------------------------------------------------------- roc sweep

def test_roc_structure_and_order():
    curves = roc_sweep(REF, lambdas=[2.0, 0.5, 1.0])
    assert [c.lam for c in curves] == [None, 0.5, 1.0, 2.0]
    for curve in curves:
        taus = [p.tau for p in curve.points]
        assert taus == sorted(taus)
        assert len(taus) == 60
        # one threshold, P_F and P_D column for every curve
        assert (curve.tau, curve.p_false, curve.p_detect) == (curves[0].tau, curves[0].p_false, curves[0].p_detect)
        assert curve.tau is curves[0].tau and curve.p_false is curves[0].p_false
        assert curve.p_detect is curves[0].p_detect
    assert curves[0].genuine_p_detect is curves[0].p_detect


_COLUMNS = ("tau", "p_false", "p_detect", "genuine_p_detect")


@pytest.mark.parametrize(
    "changed,column,message",
    [(name, (0.1,), "^a curve's columns must have one length$") for name in _COLUMNS]
    + [(name, (0.1, 0.2, 0.3), "^a curve's columns must have one length$") for name in _COLUMNS]
    + [("tau", (0.2, 0.1), "^thresholds must be strictly increasing along a curve$")]
    + [("tau", (0.1, 0.1), "^thresholds must be strictly increasing along a curve$")],
)
def test_roc_curve_refuses_ragged_columns_and_unordered_thresholds(changed, column, message):
    # zip over ragged columns would drop the rows past the shortest silently
    columns = dict.fromkeys(_COLUMNS, (0.1, 0.2))
    RocCurve(1.0, **columns)
    with pytest.raises(ValueError, match=message):
        RocCurve(1.0, **{**columns, changed: column})


def test_roc_adversarial_curves_below_counterfactual():
    curves = roc_sweep(REF, lambdas=[0.5, 1.0, 2.0])
    base = curves[0]
    for curve in curves[1:]:
        for ref, pt in zip(base.points, curve.points):
            assert pt.genuine_p_detect <= ref.genuine_p_detect + 1e-9
            assert pt.genuine_p_false == pt.p_false  # bitwise
    # pointwise ordering in lambda
    for lo, hi in zip(curves[1:], curves[2:]):
        for a, b in zip(lo.points, hi.points):
            assert a.genuine_p_detect <= b.genuine_p_detect + 1e-9


def test_roc_counterfactual_curve_reports_undistorted_rates():
    curves = roc_sweep(REF, lambdas=[], tau_grid=[1.0])
    assert len(curves) == 1
    assert curves[0].lam is None
    pt = curves[0].points[0]
    assert abs(pt.p_detect - 0.9) <= 1e-12
    assert pt.genuine_p_detect == pt.p_detect
    assert pt.p_false <= 1e-12


def test_roc_single_tau_grid():
    curves = roc_sweep(REF, lambdas=[1.0], tau_grid=[1.0])
    assert len(curves) == 2
    assert abs(curves[1].points[0].genuine_p_detect - 0.768030683315926) <= 1e-10


def test_roc_rejects_bad_grid():
    with pytest.raises(ValueError):
        roc_sweep(REF, lambdas=[1.0], tau_grid=[2.0, 1.0])
    with pytest.raises(ValueError):
        roc_sweep(REF, lambdas=[1.0], tau_grid=[-1.0, 1.0])


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[math.nan]),
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[1.0, math.inf]),
        lambda: photon_sweep(REF, tau=math.inf, lambdas=[1.0], l_values=[0, 1]),
        lambda: photon_sweep(REF, tau=math.nan, lambdas=[1.0], l_values=[0, 1]),
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[1.0, 10**400]),
        lambda: photon_sweep(REF, tau=10**400, lambdas=[1.0], l_values=[0, 1]),
    ],
    ids=["roc-nan", "roc-inf", "photon-inf", "photon-nan", "roc-beyond-float", "photon-beyond-float"],
)
def test_sweeps_reject_nonfinite_threshold(sweep):
    with pytest.raises(ValueError, match="threshold tau must be positive and finite"):
        sweep()


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: roc_sweep(REF, lambdas=[True], tau_grid=[1.0]),
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[True, 2.0]),
        lambda: photon_sweep(REF, tau=True, lambdas=[1.0], l_values=[0, 1]),
    ],
    ids=["roc-price", "roc-threshold", "photon-threshold"],
)
def test_sweeps_reject_a_bool(sweep):
    with pytest.raises(ValueError, match="must be a number, got True"):
        sweep()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "sweep",
    [
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[1.0, sys.float_info.max]),
        lambda: photon_sweep(REF, tau=sys.float_info.max, lambdas=[1.0], l_values=[0, 1]),
    ],
    ids=["roc", "photon"],
)
def test_sweeps_reject_a_threshold_whose_weights_overflow(sweep):
    # tau = max float is finite, but its c0 = 1/(1+tau) is subnormal and c1/c0 overflows
    with pytest.raises(ValueError, match=r"threshold c1/c0 must be finite"):
        sweep()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "sweep",
    [
        lambda: roc_sweep(REF, lambdas=[1.0], tau_grid=[1.0, 1.7e308]),
        lambda: photon_sweep(REF, tau=1.7e308, lambdas=[1.0], l_values=[0, 1]),
    ],
    ids=["roc", "photon"],
)
def test_sweeps_reject_a_threshold_whose_decision_operator_overflows(sweep):
    # c1/c0 is finite, but 0.6 tau passes half the largest float, so rho1 - tau rho0 cannot be symmetrized
    with pytest.raises(ValueError, match=r"^threshold c1/c0 = 1\.69\d*e\+308 is too large"):
        sweep()


@pytest.mark.parametrize("lam", [0.0, math.nan, math.inf, pytest.param(10**400, id="beyond-float")])
def test_sweeps_reject_bad_price(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        roc_sweep(REF, lambdas=[1.0, lam], tau_grid=[1.0])
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        photon_sweep(REF, tau=1.0, lambdas=[lam], l_values=[0, 1])


def test_default_tau_grid_shape():
    grid = default_tau_grid()
    assert len(grid) == 60
    assert abs(grid[0] - 1e-2) <= 1e-15
    assert abs(grid[-1] - 1e2) <= 1e-12
    ratios = np.diff(np.log(grid))
    assert np.allclose(ratios, ratios[0], atol=1e-12)


# ---------------------------------------------------------------- stacked sweeps against the scalar API

# (n_b, x, k, l): the reference, the degenerate levels k = 0 and l in {0, k}
# (down to d = 1), seeded radar_cli-style draws, then the boundary weights
# n_b, x in {0, 1}: rho0 pure (at 0 or at k), rho1 pure, rho1 = rho0, both
# pure and equal (d = 1) and both pure and orthogonal, so rho1 has rank-1
# charts and every rank is padded
STACK_SCENARIOS = (
    [(0.4, 0.9, 1, 2), (0.4, 0.9, 0, 2), (0.3, 0.6, 3, 3), (0.7, 0.2, 4, 0), (0.5, 0.5, 0, 0)]
    + [
        (float(r.uniform(0.02, 0.98)), float(r.uniform(0.02, 0.98)), int(r.integers(0, 9)), int(r.integers(0, 9)))
        for r in map(np.random.default_rng, range(7))
    ]
    + [(0.0, 0.6, 3, 2), (1.0, 0.6, 3, 2), (0.4, 1.0, 2, 5), (0.4, 0.0, 2, 5), (1.0, 1.0, 0, 0), (0.0, 1.0, 0, 4)]
)


def _stack_inputs(i):
    rng = np.random.default_rng([i, 8])
    prices = [1e-2, 1e15] + [float(v) for v in 10.0 ** rng.uniform(-2.0, 15.0, 3)]
    grids = [None, [0.01, 0.3, 1.0, 3.7, 100.0], sorted(10.0 ** rng.uniform(-2.0, 2.0, 9))]
    return RadarParams(*STACK_SCENARIOS[i]), prices, grids[i % 3]


def _solved_alone(params, taus):
    """(tau, pair, helstrom_measurement) at each threshold, solved on its own;
    ``params`` is a radar scenario or a pair whose weights the threshold replaces."""
    base = params if isinstance(params, HypothesisPair) else build_radar_pair(params, 0.5, 0.5)
    solved = []
    for tau in map(float, taus):
        pair = HypothesisPair.from_tau(base.rho0, base.rho1, tau)
        solved.append((tau, pair, helstrom_measurement(pair)))
    return solved


def _distinct_projectors(solved) -> int:
    return len({hel.pi1.matrix.tobytes() for _, _, hel in solved})


def _assert_roc_equals_scalar_api(curves, params, prices, taus):
    # every point of the stacked sweep is exactly what helstrom_measurement
    # and optimal_attack give for that threshold and price alone
    solved = _solved_alone(params, taus)
    assert [c.lam for c in curves] == [None] + sorted(prices)
    assert [astuple(p) for p in curves[0].points] == [
        (tau, hel.p_false, hel.p_detect, hel.p_false, hel.p_detect) for tau, _, hel in solved
    ]
    for curve in curves[1:]:
        want = []
        for tau, pair, hel in solved:
            sol = optimal_attack(pair, hel.pi1, curve.lam)
            want.append((tau, hel.p_false, hel.p_detect, sol.genuine_p_false, sol.genuine_p_detect))
        assert [astuple(p) for p in curve.points] == want


@pytest.mark.parametrize("i", range(len(STACK_SCENARIOS)))
def test_roc_sweep_equals_scalar_api(i):
    params, prices, grid = _stack_inputs(i)
    taus = default_tau_grid() if grid is None else grid
    _assert_roc_equals_scalar_api(roc_sweep(params, prices, grid), params, prices, taus)


def test_explicit_roc_sweep_equals_scalar_api(monkeypatch):
    # a pair's states come checked with rho1's spectrum: the sweep makes the
    # Helstrom and the attack decompositions only, and every point is what the
    # scalar API gives on HypothesisPair.from_tau at that threshold
    cfg = load_config(DATA / "explicit_noncommuting.json")
    pair = cfg.build_pair()
    taus = default_tau_grid()
    n_distinct = _distinct_projectors(_solved_alone(pair, taus))
    calls = _count_eigh(monkeypatch)
    curves = roc_sweep(pair, cfg.lambdas)
    assert calls == [(len(taus),), (len(cfg.lambdas), n_distinct)]
    _assert_roc_equals_scalar_api(curves, pair, cfg.lambdas, taus)


@pytest.mark.parametrize("i", range(len(STACK_SCENARIOS)))
def test_photon_sweep_equals_scalar_api(i):
    params, prices, _ = _stack_inputs(i)
    tau = float(10.0 ** np.random.default_rng([i, 9]).uniform(-2.0, 2.0))
    levels = [0, params.k, 3, 8]
    rows = photon_sweep(params, levels, prices, tau)
    want = []
    for lam in sorted(prices):
        for l in sorted(set(levels)):
            base = build_radar_pair(RadarParams(params.n_b, params.x, params.k, l), 0.5, 0.5)
            pair = HypothesisPair.from_tau(base.rho0, base.rho1, tau)
            hel = helstrom_measurement(pair)
            sol = optimal_attack(pair, hel.pi1, lam)
            want.append(PhotonSweepRow(l, mean_photon(pair.rho1), lam, hel.p_detect, sol.genuine_p_detect))
    assert rows == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_roc_sweep_with_an_underflowing_z1_stays_in_its_envelope():
    # at threshold 0.01 and lam <= 1e-3 every exp(w) is below the smallest
    # float; each genuine P_D still lies in its envelope
    curves = roc_sweep(REF, lambdas=[1.0, 1e-6, 1e-3], tau_grid=[0.01, 1.0])
    assert [c.lam for c in curves] == [None, 1e-6, 1e-3, 1.0]
    for curve in curves[1:]:
        for pt in curve.points:
            lower, upper = detection_bounds(pt.p_detect, curve.lam)
            assert math.isfinite(pt.genuine_p_detect)
            assert lower - BOUND_TOL <= pt.genuine_p_detect <= upper + BOUND_TOL


def _count_eigh(monkeypatch):
    calls = []
    inner = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("n_tau", [1, 7, 60])
@pytest.mark.parametrize("n_lam", [1, 4])
def test_roc_sweep_decomposes_twice_after_state_setup(monkeypatch, n_tau, n_lam):
    # rho0 and rho1 are checked as one stacked eigh; then one stacked Helstrom
    # step over the grid and one stacked attack step over every (price,
    # distinct projector) pair, the projectors counted here one threshold at a time
    grid = np.logspace(-2.0, 2.0, n_tau)
    n_distinct = _distinct_projectors(_solved_alone(REF, grid))
    calls = _count_eigh(monkeypatch)
    roc_sweep(REF, lambdas=[0.5 * (j + 1) for j in range(n_lam)], tau_grid=grid)
    assert calls == [(2, 1), (n_tau,), (n_lam, n_distinct)]


# REF's rho1 - tau rho0 = diag(0.06 - 0.6 tau, 0.04 - 0.4 tau, 0.9): one
# projector above tau = 0.1.  On (0.4, 0.5, 2, 0), diag(0.8 - 0.6 tau, 0,
# 0.2 - 0.4 tau) changes sign at tau = 0.5 and 4/3; the grid crosses both
# and holds each crossing itself, where the level reads as zero
ROC_GROUPS = [
    (REF, [0.2, 0.5, 1.0, 2.0, 50.0], 1),
    (RadarParams(0.4, 0.5, 2, 0), [0.01, 0.3, 0.5, 0.7, 1.0, 4.0 / 3.0, 1.5, 10.0, 100.0], 3),
]


@pytest.mark.parametrize("params,grid,n_distinct", ROC_GROUPS, ids=["one-projector", "every-sign-change"])
def test_roc_sweep_attacks_each_distinct_projector_once(monkeypatch, params, grid, n_distinct):
    prices = [1e-2, 0.5, 3.0, 1e9]
    assert _distinct_projectors(_solved_alone(params, grid)) == n_distinct
    stacks = []
    inner = radar._attack_stack

    def record(view, lams):
        stacks.append((len(lams), len(view.projectors)))
        return inner(view, lams)

    monkeypatch.setattr(radar, "_attack_stack", record)
    curves = roc_sweep(params, prices, grid)
    assert stacks == [(len(prices), n_distinct)]
    _assert_roc_equals_scalar_api(curves, params, prices, grid)


@pytest.mark.parametrize("levels", [[2], [0, 1, 4], range(6)])
@pytest.mark.parametrize("n_lam", [1, 3])
def test_photon_sweep_decomposes_once_per_step_and_rank(monkeypatch, levels, n_lam):
    # one state validation over every level's pair, one Helstrom step over
    # the levels, then one attack step over all prices per support rank of
    # rho1, ascending; on REF (k = 1) rho1 has rank 2 at l in {0, 1}, else 3
    steps = []
    for name in ("_helstrom_stack", "_attack_stack"):
        inner = getattr(radar, name)
        monkeypatch.setattr(radar, name, lambda *a, _inner=inner, _name=name, **k: steps.append(_name) or _inner(*a, **k))
    calls = _count_eigh(monkeypatch)
    photon_sweep(REF, levels, [0.5 * (j + 1) for j in range(n_lam)], tau=1.0)
    ranks = [len({0, REF.k, l}) for l in levels]
    per_rank = [(n_lam, ranks.count(r)) for r in sorted(set(ranks))]
    assert calls == [(2, len(ranks)), (len(ranks),)] + per_rank
    assert steps == ["_helstrom_stack"] + ["_attack_stack"] * len(per_rank)


@pytest.mark.parametrize("grid", [[], [[1.0, 2.0]]], ids=["empty", "2-d"])
def test_roc_sweep_refuses_a_grid_that_is_no_nonempty_sequence(grid):
    with pytest.raises(ValueError, match="^threshold grid must be a nonempty 1-d sequence$"):
        roc_sweep(REF, lambdas=[1.0], tau_grid=grid)
