"""Risk-optimal binary detection: projectors, rates, optimality, sampling."""

import math

import numpy as np
import pytest

from qspoof import (
    DensityOperator,
    HypothesisPair,
    ProjectorMeasurement,
    bayes_risk,
    helstrom_measurement,
    rates,
    sample_outcomes,
)
from qspoof import detection, operators
from qspoof.sampling import random_pair, random_projector

RATE_TOL = 1e-12
RISK_SLACK = 1e-9
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def plus_vs_zero(c0=0.5, c1=0.5):
    rho0 = DensityOperator.pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
    rho1 = DensityOperator.pure(np.array([1.0, 0.0]))
    return HypothesisPair(rho0=rho0, rho1=rho1, c0=c0, c1=c1)


# ---------------------------------------------------------------- pair validation

def test_pair_rejects_bad_prior_sum():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match="sum"):
        HypothesisPair(rho0=rho, rho1=rho, c0=0.6, c1=0.6)


def test_pair_rejects_negative_prior():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        HypothesisPair(rho0=rho, rho1=rho, c0=1.2, c1=-0.2)


def test_pair_rejects_zero_c0():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match="c0"):
        HypothesisPair(rho0=rho, rho1=rho, c0=0.0, c1=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pair_rejects_weights_with_an_overflowing_threshold():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match=r"threshold c1/c0 must be finite, got c0=1e-320, c1=1.0"):
        HypothesisPair(rho0=rho, rho1=rho, c0=1e-320, c1=1.0)


@pytest.mark.parametrize(
    "c0,c1",
    [
        (math.nan, math.nan),
        (math.nan, 0.5),
        (0.5, math.nan),
        (math.inf, -math.inf),
        pytest.param(10**400, 0, id="c0-beyond-float"),
        pytest.param(0, 10**400, id="c1-beyond-float"),
    ],
)
def test_pair_rejects_nonfinite_weights(c0, c1):
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match="cost weights must be finite"):
        HypothesisPair(rho0=rho, rho1=rho, c0=c0, c1=c1)


@pytest.mark.parametrize("c0,c1,name", [(True, False, "c0"), (1.0, False, "c1"), (0.0, True, "c1")])
def test_pair_rejects_a_bool_weight(c0, c1, name):
    # weights follow the number rule of prices and thresholds: a bool is not a weight
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match=f"cost weight {name} must be a number, got (True|False)"):
        HypothesisPair(rho0=rho, rho1=rho, c0=c0, c1=c1)


@pytest.mark.parametrize("tau", [math.nan, pytest.param(10**400, id="beyond-float")])
def test_pair_from_tau_rejects_nan(tau):
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match="finite"):
        HypothesisPair.from_tau(rho, rho, tau)


def test_pair_from_tau_rejects_a_bool():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError, match="threshold tau must be a number, got True"):
        HypothesisPair.from_tau(rho, rho, True)


def test_pair_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        HypothesisPair(
            rho0=DensityOperator.maximally_mixed(2),
            rho1=DensityOperator.maximally_mixed(3),
            c0=0.5,
            c1=0.5,
        )


def test_pair_from_tau():
    rho = DensityOperator.maximally_mixed(2)
    pair = HypothesisPair.from_tau(rho, rho, tau=3.0)
    assert abs(pair.c0 - 0.25) <= 1e-15
    assert abs(pair.c1 - 0.75) <= 1e-15
    assert abs(pair.tau - 3.0) <= 1e-12


def test_pair_tau_equal_priors():
    pair = plus_vs_zero()
    assert abs(pair.tau - 1.0) <= 1e-15


# ---------------------------------------------------------------- projectors

def test_projector_accepts_rank_one():
    p = ProjectorMeasurement(np.full((2, 2), 0.5))
    assert p.rank == 1


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError, match="projector"):
        ProjectorMeasurement(np.diag([0.5, 0.0]))


def test_projector_zero_and_identity():
    assert ProjectorMeasurement.zero(3).rank == 0
    assert ProjectorMeasurement(np.eye(3)).rank == 3


def test_stacked_checks_reject_one_bad_member():
    # the sweeps check whole stacks with the code the constructors run on a
    # stack of one; one bad member among good ones fails the stack
    good = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="not a projector"):
        detection._check_projectors(np.stack([good, good, np.diag([0.5, 0.0]).astype(complex), good]))
    with pytest.raises(ValueError, match=r"rank 2 does not match trace 1\.0"):
        detection._check_projectors(np.stack([good, good]), np.array([1, 2]))
    with pytest.raises(ValueError, match=r"trace 1\.5 deviates"):
        operators._check_unit_trace_psd(np.stack([good, 1.5 * good]), np.zeros(2))
    with pytest.raises(ValueError, match=r"smallest eigenvalue -1\.000000e-03"):
        operators._check_unit_trace_psd(np.stack([good, good]), np.array([0.0, -1e-3]))
    with pytest.raises(ValueError, match=r"rate 1\.5 outside"):
        detection._checked_rates(np.array([[0.2, 1.5], [0.0, 1.0]]))
    with pytest.raises(operators.NonHermitianError, match="non-finite"):
        detection._check_projectors(np.stack([good, np.full((2, 2), np.nan)]))


def test_rate_check_rejects_nan_and_clamps_to_positive_zero():
    with pytest.raises(ValueError, match="rate nan outside"):
        rates(ProjectorMeasurement(np.eye(2)), np.full((2, 2), np.nan), np.eye(2) / 2)
    clamped = detection._checked_rates(np.array([-0.0, -1e-12, 1.0 + 1e-12, 0.25]))
    assert clamped.tolist() == [0.0, 0.0, 1.0, 0.25]
    assert not np.signbit(clamped).any()


def test_projector_from_columns():
    cols = np.array([[1.0], [0.0], [0.0]])
    p = ProjectorMeasurement.from_columns(cols)
    assert p.rank == 1
    assert np.allclose(p.matrix, np.diag([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------- detector

def test_identical_states_yield_trivial_detector():
    rho = DensityOperator.maximally_mixed(2)
    pair = HypothesisPair(rho0=rho, rho1=rho, c0=0.5, c1=0.5)
    res = helstrom_measurement(pair)
    assert res.pi1.rank == 0
    assert res.p_detect == 0.0
    assert res.p_false == 0.0
    assert abs(res.bayes_risk - 0.5) <= RATE_TOL


def test_orthogonal_pure_states_perfect_detection():
    pair = HypothesisPair(
        rho0=DensityOperator.pure(np.array([1.0, 0.0])),
        rho1=DensityOperator.pure(np.array([0.0, 1.0])),
        c0=0.5,
        c1=0.5,
    )
    res = helstrom_measurement(pair)
    assert abs(res.p_detect - 1.0) <= RATE_TOL
    assert res.p_false <= RATE_TOL
    assert res.bayes_risk <= RATE_TOL


def test_plus_vs_zero_rates():
    res = helstrom_measurement(plus_vs_zero())
    assert np.allclose(sorted(res.eigenvalues), [-INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert abs(res.p_detect - (1 + INV_SQRT2) / 2) <= RATE_TOL
    assert abs(res.p_false - (1 - INV_SQRT2) / 2) <= RATE_TOL
    assert abs(res.bayes_risk - (1 - INV_SQRT2) / 2) <= RATE_TOL


def test_radar_diagonal_reference_point():
    pair = HypothesisPair(
        rho0=DensityOperator.from_diagonal([0.6, 0.4, 0.0]),
        rho1=DensityOperator.from_diagonal([0.06, 0.04, 0.9]),
        c0=0.5,
        c1=0.5,
    )
    res = helstrom_measurement(pair)
    assert np.allclose(res.pi1.matrix, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert abs(res.p_detect - 0.9) <= RATE_TOL
    assert res.p_false <= RATE_TOL
    assert abs(res.bayes_risk - 0.05) <= RATE_TOL


def test_zero_tau_keeps_support_of_rho1():
    # c1 = 1 means misses are the only cost; accept everything rho1 touches
    pair = HypothesisPair.from_tau(
        DensityOperator.maximally_mixed(3),
        DensityOperator.maximally_mixed(3),
        tau=1e-9,
    )
    res = helstrom_measurement(pair)
    assert abs(res.p_detect - 1.0) <= 1e-8


def test_eigenvalue_zero_ties_go_to_null_hypothesis():
    rho = DensityOperator.maximally_mixed(2)
    pair = HypothesisPair(rho0=rho, rho1=rho, c0=0.5, c1=0.5)
    res = helstrom_measurement(pair)
    # all eigenvalues of the decision operator are exactly zero
    assert np.allclose(res.eigenvalues, 0.0, atol=1e-15)
    assert res.pi1.rank == 0


def test_rates_free_function_matches_result():
    pair = plus_vs_zero()
    res = helstrom_measurement(pair)
    pd, pf = rates(res.pi1, pair.rho1, pair.rho0)
    assert pd == res.p_detect
    assert pf == res.p_false


def test_bayes_risk_extreme_projectors():
    pair = plus_vs_zero(c0=0.3, c1=0.7)
    assert abs(bayes_risk(ProjectorMeasurement.zero(2), pair) - 0.7) <= 1e-15
    assert abs(bayes_risk(ProjectorMeasurement(np.eye(2)), pair) - 0.3) <= 1e-15


def test_helstrom_beats_random_projectors():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pair = random_pair(rng, dim=int(rng.integers(2, 7)))
        best = helstrom_measurement(pair).bayes_risk
        for _ in range(40):
            pi = random_projector(rng, pair.rho0.dim)
            assert best <= bayes_risk(pi, pair) + RISK_SLACK


def test_decision_spectrum_is_tau_continuous():
    # eigenvalues of rho1 - tau*rho0 move at most ||rho0|| * dtau
    rng = np.random.default_rng(11)
    pair = random_pair(rng, dim=4)
    taus = np.linspace(0.5, 2.0, 7)
    dtau = taus[1] - taus[0]
    lip = np.linalg.norm(pair.rho0.matrix, 2)
    prev = None
    for tau in taus:
        res = helstrom_measurement(
            HypothesisPair.from_tau(pair.rho0, pair.rho1, tau=float(tau))
        )
        w = np.sort(np.linalg.eigvalsh(pair.rho1.matrix - tau * pair.rho0.matrix))
        if prev is not None:
            assert np.max(np.abs(w - prev)) <= lip * dtau + 1e-9
        prev = w
        assert res.p_detect >= -1e-15


def test_helstrom_stack_over_distinct_pairs():
    # a stack of different (rho0, rho1, c0, c1), with projector ranks from
    # 0 (rho1 = rho0 at tau 2) to full (tau 0): every member is the pair
    # solved alone, to the bit
    rng = np.random.default_rng(12)
    generic = [random_pair(rng, dim=4) for _ in range(3)]
    same = generic[0].rho0
    pure = DensityOperator.pure(np.array([1.0, 1j, 0.0, 0.0]) / math.sqrt(2.0))
    pairs = [
        generic[0],
        HypothesisPair.from_tau(same, same, 2.0),
        HypothesisPair(generic[1].rho0, generic[1].rho1, 1.0, 0.0),
        HypothesisPair.from_tau(generic[1].rho0, generic[2].rho1, 0.4),
        HypothesisPair.from_tau(generic[2].rho0, pure, 1.5),
    ]
    hel = detection._helstrom_stack(
        np.stack([p.rho0.matrix for p in pairs]),
        np.stack([p.rho1.matrix for p in pairs]),
        np.array([p.c0 for p in pairs]),
        np.array([p.c1 for p in pairs]),
    )
    for j, pair in enumerate(pairs):
        one = helstrom_measurement(pair)
        assert np.array_equal(hel.projectors[j], one.pi1.matrix)
        assert hel.ranks[j] == one.pi1.rank
        assert np.array_equal(hel.eigenvalues[j], one.eigenvalues)
        assert (hel.p_detect[j], hel.p_false[j], hel.bayes_risk[j]) == (one.p_detect, one.p_false, one.bayes_risk)
    assert hel.ranks[1] == 0 and hel.ranks[2] == 4
    assert len(set(hel.ranks.tolist())) >= 3


# ---------------------------------------------------------------- sampling

def test_sample_outcomes_deterministic_per_seed():
    pair = plus_vs_zero()
    res = helstrom_measurement(pair)
    a = sample_outcomes(pair.rho1, res.pi1, 1000, seed=5)
    b = sample_outcomes(pair.rho1, res.pi1, 1000, seed=5)
    assert a == b
    c = sample_outcomes(pair.rho1, res.pi1, 1000, seed=6)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_sample_outcomes_certain_events():
    rho = DensityOperator.pure(np.array([0.0, 1.0]))
    hits, n = sample_outcomes(rho, ProjectorMeasurement(np.diag([0.0, 1.0])), 500, seed=0)
    assert (hits, n) == (500, 500)
    hits, _ = sample_outcomes(rho, ProjectorMeasurement(np.diag([1.0, 0.0])), 500, seed=0)
    assert hits == 0


def test_sample_outcomes_three_sigma():
    pair = plus_vs_zero()
    res = helstrom_measurement(pair)
    p = res.p_detect
    n = 10**5
    hits, total = sample_outcomes(pair.rho1, res.pi1, n, seed=123)
    margin = 3.0 * math.sqrt(p * (1 - p) / n)
    assert abs(hits / total - p) <= margin


def test_sample_outcomes_rejects_bad_n():
    pair = plus_vs_zero()
    for n in [0, -1, 2.5, 3.0, True, False, "3", None, 10**20, 2**63, np.int64(0), np.float64(4.0)]:
        with pytest.raises(ValueError, match="^trial count n must be an integer from 1 to 2\\*\\*63 - 1, got "):
            sample_outcomes(pair.rho1, ProjectorMeasurement(np.eye(2)), n, seed=0)


@pytest.mark.parametrize("n", [1, 7, np.int64(7), np.uint8(7), 2**63 - 1])
def test_sample_outcomes_reports_the_trial_count_as_an_int(n):
    # every trial announces H1 under the identity projector
    pair = plus_vs_zero()
    hits, trials = sample_outcomes(pair.rho1, ProjectorMeasurement(np.eye(2)), n, seed=0)
    assert type(trials) is int and trials == n == hits
