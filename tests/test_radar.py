"""Photon-number radar scenario: state construction, ROC and signal sweeps."""

import math

import numpy as np
import pytest

from qspoof import (
    HypothesisPair,
    RadarParams,
    build_radar_pair,
    default_tau_grid,
    helstrom_measurement,
    mean_photon,
    photon_sweep,
    roc_sweep,
)

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


def test_dim_covers_both_levels():
    assert RadarParams(n_b=0.1, x=0.5, k=5, l=2).dim == 6
    assert RadarParams(n_b=0.1, x=0.5, k=1, l=7).dim == 8


def test_params_validation():
    with pytest.raises(ValueError):
        RadarParams(n_b=1.5, x=0.5, k=1, l=2)
    with pytest.raises(ValueError):
        RadarParams(n_b=0.4, x=-0.1, k=1, l=2)
    with pytest.raises(ValueError):
        RadarParams(n_b=0.4, x=0.5, k=-1, l=2)


def test_with_l_rebuilds():
    assert REF.with_l(5).l == 5
    assert REF.with_l(5).k == REF.k


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
        pd, gpd = expected_photon_rates(REF.with_l(row.l), row.lam)
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
        pair = build_radar_pair(REF.with_l(row.l), c0=0.5, c1=0.5)
        assert abs(row.mean_photon - mean_photon(pair.rho1)) <= 1e-14


def test_photon_sweep_monotone_in_lambda():
    rows = photon_sweep(REF, l_values=[3], lambdas=[0.2, 0.5, 1.0, 2.0, 8.0], tau=1.0)
    vals = [row.genuine_p_detect for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


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
    ],
    ids=["roc-nan", "roc-inf", "photon-inf", "photon-nan"],
)
def test_sweeps_reject_nonfinite_threshold(sweep):
    with pytest.raises(ValueError, match="threshold tau must be positive and finite"):
        sweep()


@pytest.mark.parametrize("lam", [0.0, math.nan, math.inf])
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
