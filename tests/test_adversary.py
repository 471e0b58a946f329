"""Interceptor layer: closed-form distortion, oracle, bounds, perturbation."""

import copy
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspoof import (
    BoundReport,
    DensityOperator,
    HypothesisPair,
    OracleConvergenceError,
    PerturbationReport,
    ProjectorMeasurement,
    RadarParams,
    attacker_utility,
    build_radar_pair,
    detection_bounds,
    gap_condition_sums,
    helstrom_measurement,
    hermitian_part,
    optimal_attack,
    oracle_attack,
    perturbation_estimate,
    relative_entropy,
    spectral_decompose,
)
from qspoof import adversary, detection, operators, verify
from qspoof.adversary import (
    BOUND_TOL,
    SERIES_PRICE,
    _chart_cost,
    _chart_gradient,
    _chart_point,
    _exp_divided_differences,
    _newton_direction,
)
from qspoof.config import VerifyOptions
from qspoof.sampling import (
    haar_unitary,
    near_commuting_pair,
    random_commuting_pair,
    random_density,
    random_pair,
    random_projector,
)
from qspoof.verify import ORACLE_STATE_TOL, ORACLE_UTILITY_TOL

STATE_TOL = 1e-10
ORACLE_TOL = 1e-6
E = math.e


def radar_pair():
    return HypothesisPair(
        rho0=DensityOperator.from_diagonal([0.6, 0.4, 0.0]),
        rho1=DensityOperator.from_diagonal([0.06, 0.04, 0.9]),
        c0=0.5,
        c1=0.5,
    )


def radar_attack(lam):
    pair = radar_pair()
    res = helstrom_measurement(pair)
    return pair, res, optimal_attack(pair, res.pi1, lam)


# ---------------------------------------------------------------- closed form

def test_attack_radar_lambda_one():
    # scalar rederivation: suppressed entries are r_i * exp(-Pi_ii / lam)
    z_want = 0.06 + 0.04 + 0.9 / E
    want = np.array([0.06, 0.04, 0.9 / E]) / z_want
    pair, res, sol = radar_attack(1.0)
    assert abs(sol.z1 - z_want) <= 1e-15
    assert np.allclose(np.diag(sol.rho1_prime.matrix).real, want, atol=1e-14)
    assert abs(sol.genuine_p_detect - want[2]) <= 1e-14
    # pinned decimal values
    assert abs(sol.z1 - 0.43109149705429806) <= 1e-12
    assert abs(sol.genuine_p_detect - 0.768030683315926) <= 1e-12
    assert np.allclose(
        np.diag(sol.rho1_prime.matrix).real,
        [0.13918159, 0.09278773, 0.76803068],
        atol=1e-8,
    )


@pytest.mark.parametrize(
    "lam,z_want,pd_want",
    [
        (0.5, 0.22180175491295145, 0.5491469396207161),
        (2.0, 0.6458775937413701, 0.8451719010397454),
    ],
)
def test_attack_radar_lambda_grid(lam, z_want, pd_want):
    _, _, sol = radar_attack(lam)
    assert abs(sol.z1 - z_want) <= 1e-14
    assert abs(sol.genuine_p_detect - pd_want) <= 1e-14
    # scalar rederivation of both
    q = 0.9 * math.exp(-1.0 / lam)
    assert abs(sol.z1 - (0.1 + q)) <= 1e-14
    assert abs(sol.genuine_p_detect - q / (0.1 + q)) <= 1e-13


def test_attack_leaves_rho0_untouched():
    pair, res, sol = radar_attack(1.0)
    assert sol.rho0_prime is pair.rho0
    assert sol.genuine_p_false == res.p_false


def test_attack_false_alarm_equality_off_diagonal():
    rng = np.random.default_rng(42)
    pair = random_pair(rng, 4)
    res = helstrom_measurement(pair)
    sol = optimal_attack(pair, res.pi1, 1.0)
    assert sol.genuine_p_false == res.p_false


def test_attack_utility_identity():
    # at the optimum, utility equals -lam * ln Z1
    for lam in (0.5, 1.0, 2.0, 5.0):
        _, _, sol = radar_attack(lam)
        assert abs(sol.utility - (-lam * math.log(sol.z1))) <= 1e-12
    _, _, sol = radar_attack(1.0)
    assert abs(sol.utility - 0.8414349212595708) <= 1e-12


def test_attack_utility_identity_noncommuting():
    rng = np.random.default_rng(7)
    for _ in range(5):
        pair = random_pair(rng, int(rng.integers(2, 6)))
        res = helstrom_measurement(pair)
        for lam in (0.5, 2.0):
            sol = optimal_attack(pair, res.pi1, lam)
            assert abs(sol.utility - (-lam * math.log(sol.z1))) <= 1e-10


def test_attack_large_lambda_recovers_rho1():
    pair, _, sol = radar_attack(1e9)
    dev = np.max(np.abs(sol.rho1_prime.matrix - pair.rho1.matrix))
    assert dev <= 1e-8


def test_attack_rejects_nonpositive_lambda():
    pair = radar_pair()
    res = helstrom_measurement(pair)
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            optimal_attack(pair, res.pi1, lam)


def _price_entry_points(lam):
    pair = radar_pair()
    pi1 = helstrom_measurement(pair).pi1
    return (
        lambda: optimal_attack(pair, pi1, lam),
        lambda: oracle_attack(pair, pi1, lam),
        lambda: perturbation_estimate(pair, pi1, lam),
        lambda: attacker_utility(pair.rho1, pair.rho0, pi1, pair, lam),
        lambda: detection_bounds(0.9, lam),
    )


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="beyond-float")])
def test_price_entry_points_reject_nonfinite_lambda(lam):
    # 10**400 is an int beyond float range: the rule refuses it before any conversion
    for call in _price_entry_points(lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            call()


def test_price_entry_points_reject_a_bool():
    for call in _price_entry_points(True):
        with pytest.raises(ValueError, match="lam must be a number, got True"):
            call()


@pytest.mark.parametrize("lam", [5e-324, 1e-309, 5.562684646268003e-309])
def test_price_entry_points_reject_a_price_whose_reciprocal_overflows(lam):
    # 5.562684646268003e-309 is 1/(max float) rounded; its reciprocal is inf
    for call in _price_entry_points(lam):
        with pytest.raises(ValueError, match="lam must have a finite reciprocal 1/lam"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-308, 5.56268464626801e-309])
def test_attack_solves_at_the_smallest_prices(lam):
    # the smallest accepted price, nextafter(1/max float, 1), still gives a
    # finite answer inside the envelope
    pair = radar_pair()
    hel = helstrom_measurement(pair)
    sol = optimal_attack(pair, hel.pi1, lam)
    assert math.isfinite(sol.utility) and math.isfinite(sol.z1)
    lower, upper = detection_bounds(hel.p_detect, lam)
    assert lower - BOUND_TOL <= sol.genuine_p_detect <= upper + BOUND_TOL


def test_attack_zero_projector_is_identity_map():
    pair = radar_pair()
    sol = optimal_attack(pair, ProjectorMeasurement.zero(3), 1.0)
    assert np.allclose(sol.rho1_prime.matrix, pair.rho1.matrix, atol=1e-14)
    assert abs(sol.utility) <= 1e-14


def test_attack_preserves_support():
    # rank-deficient rho1: the distortion must stay on its support
    pair = HypothesisPair(
        rho0=DensityOperator.from_diagonal([0.5, 0.5, 0.0]),
        rho1=DensityOperator.from_diagonal([0.3, 0.0, 0.7]),
        c0=0.5,
        c1=0.5,
    )
    res = helstrom_measurement(pair)
    sol = optimal_attack(pair, res.pi1, 1.0)
    m = sol.rho1_prime.matrix
    assert abs(m[1, 1]) <= 1e-14
    assert np.all(np.abs(m[1, :]) <= 1e-14)
    assert math.isfinite(relative_entropy(sol.rho1_prime, pair.rho1))


def test_attack_is_minimum_among_feasible_states():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pair = random_pair(rng, int(rng.integers(2, 6)))
        res = helstrom_measurement(pair)
        lam = float(rng.uniform(0.3, 4.0))
        sol = optimal_attack(pair, res.pi1, lam)
        best = sol.utility
        for _ in range(8):
            sigma = random_density(rng, pair.rho1.dim, min_eigenvalue=1e-4)
            for t in (0.03, 0.3, 1.0):
                mix = DensityOperator(
                    (1 - t) * sol.rho1_prime.matrix + t * sigma.matrix
                )
                trial = attacker_utility(mix, pair.rho0, res.pi1, pair, lam)
                assert best <= trial + 1e-9


# ---------------------------------------------------------------- utility

def test_utility_of_undistorted_states_is_detect_rate():
    pair = radar_pair()
    res = helstrom_measurement(pair)
    u = attacker_utility(pair.rho1, pair.rho0, res.pi1, pair, 1.0)
    assert abs(u - res.p_detect) <= 1e-14


def test_utility_infinite_outside_support():
    pair = HypothesisPair(
        rho0=DensityOperator.from_diagonal([0.5, 0.5, 0.0]),
        rho1=DensityOperator.from_diagonal([0.5, 0.5, 0.0]),
        c0=0.5,
        c1=0.5,
    )
    bad = DensityOperator.from_diagonal([0.25, 0.25, 0.5])
    u = attacker_utility(bad, pair.rho0, ProjectorMeasurement.zero(3), pair, 1.0)
    assert math.isinf(u)


def _count_decompositions(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        inner = getattr(np.linalg, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("d", [2, 5, 16])
def test_attack_decomposes_exponent_only(monkeypatch, d):
    # the spectra of rho1 and rho0 were computed when the pair was built,
    # rho1' takes its spectrum from the exponent's, and the utility is
    # read off that spectrum: no relative entropy is taken
    rng = np.random.default_rng(d)
    pair = random_pair(rng, d)
    pi1 = helstrom_measurement(pair).pi1
    calls = _count_decompositions(monkeypatch)
    entropies = []
    monkeypatch.setattr(adversary, "relative_entropy", lambda *a, **k: entropies.append(a))
    for lam in (0.7, SERIES_PRICE, 1e12):
        optimal_attack(pair, pi1, lam)
    assert calls == {"eigh": 3, "eigvalsh": 0}
    assert entropies == []


def _rank_deficient_pair(rng, d, rank):
    """A generic rho0 with a rho1 of the given rank in a Haar basis."""
    u = haar_unitary(rng, d)
    spectrum = np.zeros(d)
    spectrum[:rank] = rng.uniform(0.1, 1.0, size=rank)
    rho1 = DensityOperator((u * (spectrum / spectrum.sum())) @ u.conj().T)
    return HypothesisPair(random_density(rng, d, 1e-3), rho1, 0.5, 0.5)


@pytest.mark.parametrize(
    "d,rank",
    [pytest.param(d, d, id=str(d)) for d in (3, 8, 32, 128)] + [pytest.param(6, 3, id="rank-deficient")],
)
def test_stacked_steps_equal_their_batch_of_one(d, rank):
    # on generic (dense, complex) pairs, and on a rho1 with a kernel, every
    # member of a stacked Helstrom or attack step is bit-identical to the
    # same point solved alone, including the spectrum stored with rho1'
    rng = np.random.default_rng(40 + d)
    base = random_pair(rng, d) if rank == d else _rank_deficient_pair(rng, d, rank)
    pairs = [HypothesisPair.from_tau(base.rho0, base.rho1, tau) for tau in (0.3, 1.0, 2.5)]
    weights = (np.array([p.c0 for p in pairs]), np.array([p.c1 for p in pairs]))
    hel = detection._helstrom_stack(base.rho0.matrix, base.rho1.matrix, *weights)
    lams = np.array([0.05, 1.0, 3e4, 1e9])
    view = adversary._attack_view(base.rho1.spectrum.eigenvalues, base.rho1.spectrum.eigenvectors, hel.projectors)
    att = adversary._attack_stack(view, lams)
    for j, pair in enumerate(pairs):
        one = helstrom_measurement(pair)
        assert np.array_equal(hel.projectors[j], one.pi1.matrix)
        assert np.array_equal(hel.eigenvalues[j], one.eigenvalues)
        assert (hel.p_detect[j], hel.p_false[j]) == (one.p_detect, one.p_false)
        for i, lam in enumerate(lams):
            sol = optimal_attack(pair, one.pi1, float(lam))
            stacked = adversary._lifted_state(view.kernel, att.gibbs, (i, j))
            assert np.array_equal(att.gibbs.matrices[i, j], sol.rho1_prime.matrix)
            assert np.array_equal(stacked.spectrum.eigenvalues, sol.rho1_prime.spectrum.eigenvalues)
            assert np.array_equal(stacked.spectrum.eigenvectors, sol.rho1_prime.spectrum.eigenvectors)
            assert (att.gibbs.z1[i, j], att.genuine_p_detect[i, j]) == (sol.z1, sol.genuine_p_detect)
    if rank < d:
        assert sol.rho1_prime.spectrum.eigenvalues[rank:].tolist() == [0.0] * (d - rank)


@pytest.mark.parametrize("d,rank", [(8, 1), (11, 1), (12, 1), (6, 3), (5, 5)])
def test_attack_view_equals_the_masked_chart(d, rank):
    # the chart is a slice of rho1's descending spectrum; it holds the
    # same values, to the bit, as the copy taken with a boolean mask,
    # including Pi1 in it for a single support column
    rng = np.random.default_rng(80 + d)
    pair = _rank_deficient_pair(rng, d, rank)
    pi1 = helstrom_measurement(pair).pi1.matrix
    w, x = pair.rho1.spectrum.eigenvalues, pair.rho1.spectrum.eigenvectors
    keep = w > operators.EIGEN_ZERO_TOL
    view = adversary._attack_view(w, x, pi1[None])
    assert np.array_equal(view.r, w[keep]) and np.array_equal(view.kernel, x[:, ~keep])
    assert np.array_equal(view.pi_s, adversary._in_support(x[:, keep], pi1[None]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_attack_with_an_underflowing_z1_stays_in_its_envelope():
    # at threshold 0.01 and lam <= 1e-3 every exp(w) is below the smallest
    # float; the shifted exponentials still give a finite state, and
    # utility and genuine rate stay inside their envelopes
    base = radar_pair()
    pair = HypothesisPair.from_tau(base.rho0, base.rho1, 0.01)
    hel = helstrom_measurement(pair)
    for lam in (1e-3, 1e-6):
        sol = optimal_attack(pair, hel.pi1, lam)
        assert all(math.isfinite(x) for x in (sol.utility, sol.z1, sol.genuine_p_detect))
        assert sol.z1 >= 0.0
        assert sol.genuine_p_detect - BOUND_TOL <= sol.utility <= hel.p_detect + BOUND_TOL
        report = BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, lam)
        assert report.lower_satisfied and report.upper_satisfied


def test_subnormal_z1_is_rounded_once():
    # at threshold 0.01 the projector is the identity and Z1 = e^-740 =
    # 4.18874e-322 (50 digits); the product sum * e^w_max rounded twice to
    # 4.15e-322, one exponential gives the nearest subnormal
    base = radar_pair()
    pair = HypothesisPair.from_tau(base.rho0, base.rho1, 0.01)
    sol = optimal_attack(pair, helstrom_measurement(pair).pi1, 1.0 / 740.0)
    assert sol.z1 == 4.18874e-322


def test_perturbation_estimate_decomposes_exponent_only(monkeypatch):
    rng = np.random.default_rng(3)
    pair = random_pair(rng, 6)
    pi1 = helstrom_measurement(pair).pi1
    calls = _count_decompositions(monkeypatch)
    perturbation_estimate(pair, pi1, 10.0)
    assert calls == {"eigh": 1, "eigvalsh": 0}


# ------------------------------------------------ stored attack view

VIEW_PRICES = (1e-6, 0.03, 1.0, 40.0, 1e6)


def _assert_same_solution(a, b):
    assert np.array_equal(a.rho1_prime.matrix, b.rho1_prime.matrix)
    assert np.array_equal(a.rho1_prime.spectrum.eigenvalues, b.rho1_prime.spectrum.eigenvalues)
    assert np.array_equal(a.rho1_prime.spectrum.eigenvectors, b.rho1_prime.spectrum.eigenvectors)
    assert a.rho0_prime is b.rho0_prime
    assert (a.lam, a.z1, a.genuine_p_detect, a.genuine_p_false, a.utility) == (
        b.lam, b.z1, b.genuine_p_detect, b.genuine_p_false, b.utility
    )


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("d,rank", [(5, 5), (32, 32), (6, 3)])
def test_stored_view_gives_the_bare_array_result(d, rank):
    # a ProjectorMeasurement reuses its view after the first price; the bare
    # array builds it every call, and every field is the same to the bit
    rng = np.random.default_rng(60 + d)
    pair = random_pair(rng, d) if rank == d else _rank_deficient_pair(rng, d, rank)
    pi1 = helstrom_measurement(pair).pi1
    for lam in VIEW_PRICES:
        _assert_same_solution(optimal_attack(pair, pi1, lam), optimal_attack(pair, pi1.matrix, lam))


def test_stored_view_is_built_once_per_pair_and_projector(monkeypatch):
    rng = np.random.default_rng(61)
    pair = random_pair(rng, 6)
    pi1 = helstrom_measurement(pair).pi1
    in_support = _count_calls(monkeypatch, adversary, "_in_support")
    calls = _count_decompositions(monkeypatch)
    for k, lam in enumerate(VIEW_PRICES, start=1):
        optimal_attack(pair, pi1, lam)
        assert calls == {"eigh": k, "eigvalsh": 0}
    assert len(in_support) == 1
    # a bare array is never stored
    for lam in VIEW_PRICES:
        optimal_attack(pair, pi1.matrix, lam)
    assert len(in_support) == 1 + len(VIEW_PRICES)


def test_stored_view_follows_the_pair(monkeypatch):
    # the same projector on a new rho1, then a new rho0, gives the fresh
    # result, never the one stored for the old pair
    rng = np.random.default_rng(62)
    first = random_pair(rng, 4)
    pi1 = helstrom_measurement(first).pi1
    other = random_pair(rng, 4)
    new_rho1 = HypothesisPair(first.rho0, other.rho1, 0.5, 0.5)
    new_rho0 = HypothesisPair(other.rho0, other.rho1, 0.5, 0.5)
    before = optimal_attack(first, pi1, 0.7)
    for pair in (new_rho1, new_rho0, first):
        sol = optimal_attack(pair, pi1, 0.7)
        _assert_same_solution(sol, optimal_attack(pair, pi1.matrix, 0.7))
    assert optimal_attack(new_rho1, pi1, 0.7).utility != before.utility
    assert optimal_attack(new_rho0, pi1, 0.7).genuine_p_false != before.genuine_p_false
    # the store is keyed by the pair object: a new pair over the same
    # states builds its own view, and another projector on a stored pair
    # replaces the entry, with the fresh result either way
    in_support = _count_calls(monkeypatch, adversary, "_in_support")
    twin = HypothesisPair(first.rho0, first.rho1, 0.5, 0.5)
    _assert_same_solution(optimal_attack(twin, pi1, 0.7), before)
    assert adversary._VIEWS[twin].pi1 is pi1 and len(in_support) == 1
    flipped = ProjectorMeasurement(np.eye(4) - pi1.matrix)
    _assert_same_solution(optimal_attack(twin, flipped, 0.7), optimal_attack(twin, flipped.matrix, 0.7))
    assert adversary._VIEWS[twin].pi1 is flipped and len(in_support) == 3
    optimal_attack(twin, flipped, 0.3)
    assert len(in_support) == 3


def test_stored_view_goes_with_its_pair():
    # an entry keeps its projector alive while its pair lives, and goes
    # (with the projector) when the pair is collected
    rng = np.random.default_rng(63)
    pair = random_pair(rng, 4)
    gc.collect()
    stored = len(adversary._VIEWS)
    pi1 = helstrom_measurement(pair).pi1
    optimal_attack(pair, pi1, 1.0)
    assert pair in adversary._VIEWS and len(adversary._VIEWS) == stored + 1
    ref = weakref.ref(pi1)
    del pi1
    gc.collect()
    assert ref() is adversary._VIEWS[pair].pi1
    del pair
    gc.collect()
    assert ref() is None
    assert len(adversary._VIEWS) == stored


def test_used_projector_pickles_and_copies():
    rng = np.random.default_rng(64)
    pair = random_pair(rng, 4)
    pi1 = helstrom_measurement(pair).pi1
    optimal_attack(pair, pi1, 1.0)
    perturbation_estimate(pair, pi1, 10.0)
    for twin in (pickle.loads(pickle.dumps(pi1)), copy.deepcopy(pi1)):
        assert np.array_equal(twin.matrix, pi1.matrix)
        assert twin.rank == pi1.rank


def test_oracle_builds_its_own_chart(monkeypatch):
    # the oracle stays independent of the closed form: a warm view for the
    # same (pair, projector) does not feed it
    rng = np.random.default_rng(65)
    pair = random_pair(rng, 3)
    pi1 = helstrom_measurement(pair).pi1
    optimal_attack(pair, pi1, 1.0)
    in_support = _count_calls(monkeypatch, adversary, "_in_support")
    for lam in (0.5, 2.0):
        oracle_attack(pair, pi1, lam)
    assert len(in_support) == 2


def test_perturbation_estimate_reads_the_view(monkeypatch):
    rng = np.random.default_rng(66)
    pair = random_pair(rng, 5)
    pi1 = helstrom_measurement(pair).pi1
    in_support = _count_calls(monkeypatch, adversary, "_in_support")
    for lam in (10.0, 100.0):
        got = perturbation_estimate(pair, pi1, lam)
        want = perturbation_estimate(pair, pi1.matrix, lam)
        for name in PerturbationReport.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name
    # one view for pi1 and one per bare-array call
    assert len(in_support) == 1 + 2
    optimal_attack(pair, pi1, 10.0)
    assert len(in_support) == 3


def test_view_takes_its_false_alarm_trace_when_built(monkeypatch):
    # building a stored view takes the one rho0 trace for the genuine P_F,
    # whatever builds it; later attacks on the view take none
    rng = np.random.default_rng(67)
    pair = random_pair(rng, 4)
    hel = helstrom_measurement(pair)
    traces = _count_calls(monkeypatch, adversary, "trace_product")
    perturbation_estimate(pair, hel.pi1, 10.0)
    assert len(traces) == 1
    sol = optimal_attack(pair, hel.pi1, 10.0)
    assert len(traces) == 1
    assert sol.genuine_p_false == optimal_attack(pair, hel.pi1.matrix, 10.0).genuine_p_false == hel.p_false
    assert len(traces) == 2
    assert adversary._optimal_attacks(pair, hel.pi1, (3.0, 30.0))[1].genuine_p_false == sol.genuine_p_false
    assert len(traces) == 2


@pytest.mark.parametrize("d,rank", [(3, 3), (6, 6), (6, 3)])
def test_optimal_attacks_members_equal_optimal_attack(monkeypatch, d, rank):
    # the prices of one (pair, projector) in one stacked step: each solution
    # is the one optimal_attack gives alone, to the bit
    rng = np.random.default_rng(68 + d + rank)
    pair = random_pair(rng, d) if rank == d else _rank_deficient_pair(rng, d, rank)
    pi1 = helstrom_measurement(pair).pi1
    lams = VIEW_PRICES + (SERIES_PRICE, 1e12)
    calls = _count_decompositions(monkeypatch)
    stacked = adversary._optimal_attacks(pair, pi1, lams)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    for lam, sol in zip(lams, stacked):
        assert sol.lam == lam
        _assert_same_solution(sol, optimal_attack(pair, pi1, lam))
        _assert_same_solution(sol, optimal_attack(pair, pi1.matrix, lam))


def _perturbation_case(rng, kind):
    if kind == "full":
        return random_pair(rng, 4)
    if kind == "rank-deficient":
        return _rank_deficient_pair(rng, 6, 3)
    # a doubly degenerate spectrum in a Haar basis
    u = haar_unitary(rng, 4)
    rho1 = DensityOperator((u * np.array([0.3, 0.3, 0.25, 0.15])) @ u.conj().T)
    return HypothesisPair(random_density(rng, 4, 1e-3), rho1, 0.5, 0.5)


@pytest.mark.parametrize("kind", ["full", "rank-deficient", "degenerate"])
def test_perturbation_stack_members_equal_the_report(kind):
    # a (pair x price) stack: each member is what perturbation_estimate
    # reports for that pair and price alone, to the bit
    rng = np.random.default_rng(69)
    pairs = [_perturbation_case(rng, kind) for _ in range(4)]
    projectors = [helstrom_measurement(pair).pi1 for pair in pairs]
    view = adversary._attack_view(
        np.stack([pair.rho1.spectrum.eigenvalues for pair in pairs]),
        np.stack([pair.rho1.spectrum.eigenvectors for pair in pairs]),
        np.stack([pi.matrix for pi in projectors]),
    )
    lams = np.array([0.01, 0.5, 10.0, 100.0, 1e6])
    pert = adversary._perturbation_stack(view.r, view.pi_s, lams)
    for p, (pair, pi1) in enumerate(zip(pairs, projectors)):
        for i, lam in enumerate(lams):
            rep = perturbation_estimate(pair, pi1, float(lam))
            assert np.array_equal(pert.beta[p], rep.beta)
            for name in ("exact", "estimate", "residual", "match_overlap"):
                assert np.array_equal(getattr(pert, name)[p, i], getattr(rep, name)), name
            assert pert.matching_ok[p, i] == rep.matching_ok
            assert rep.full_rank is (kind != "rank-deficient")
            assert rep.simple_spectrum is (kind != "degenerate")


def test_support_checks_stay_in_blas(monkeypatch):
    # a three-operand einsum is an unoptimized O(d^3) loop outside BLAS
    rng = np.random.default_rng(5)
    pair = random_pair(rng, 8)
    pi1 = helstrom_measurement(pair).pi1
    sol = optimal_attack(pair, pi1, 0.5)
    subscripts = []
    inner = np.einsum

    def spy(spec, *operands, **kwargs):
        subscripts.append((spec, len(operands)))
        return inner(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    relative_entropy(sol.rho1_prime, pair.rho1)
    optimal_attack(pair, pi1, 2.0)
    perturbation_estimate(pair, pi1, 2.0)
    assert subscripts
    assert [s for s in subscripts if s[1] > 2] == []


def _spectrum_pair(kind, rng, d):
    """A pair of the given kind: generic, rank-deficient radar, or a rho1
    with a degenerate spectrum in a random basis."""
    if kind == "generic":
        return random_pair(rng, d)
    if kind == "radar":
        params = RadarParams(float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98)),
                             int(rng.integers(0, 9)), int(rng.integers(0, 9)))
        tau = float(10.0 ** rng.uniform(-1.0, 1.0))
        return build_radar_pair(params, 1.0 / (1.0 + tau), tau / (1.0 + tau))
    levels = rng.uniform(0.1, 1.0, size=int(rng.integers(1, min(d, 4) + 1)))
    spectrum = rng.choice(levels, size=d)
    spectrum /= spectrum.sum()
    u = haar_unitary(rng, d)
    rho1 = DensityOperator((u * spectrum) @ u.conj().T)
    return HypothesisPair(random_density(rng, d, 1e-3), rho1, 0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["generic", "radar", "degenerate"]),
    st.integers(min_value=2, max_value=128),
    st.floats(min_value=-6.0, max_value=15.0),
)
def test_trusted_spectrum_matches_matrix_property(seed, kind, d, exponent):
    # rho1' keeps the spectrum the attack derived from the exponent; it
    # must be the spectrum of the matrix it stores
    rng = np.random.default_rng(seed)
    pair = _spectrum_pair(kind, rng, d)
    pi1 = helstrom_measurement(pair).pi1
    state = optimal_attack(pair, pi1, 10.0**exponent).rho1_prime
    w, v = state.spectrum.eigenvalues, state.spectrum.eigenvectors
    n = state.dim
    assert list(w) == sorted(w, reverse=True)
    assert np.max(np.abs(w - np.linalg.eigvalsh(state.matrix)[::-1])) <= 1e-13
    assert np.max(np.abs((v * w) @ v.conj().T - state.matrix)) <= 1e-13
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-13


def test_utility_normalizes_the_support_spectrum():
    # a state's trace is one only within TRACE_TOL; read off an unnormalized
    # spectrum, -lam ln Z1 would be off by lam * (trace - 1) = 5e-7 at lam = 1e4
    pi1 = ProjectorMeasurement(np.diag([0.0, 0.0, 1.0]))
    for lam in (1e4, 1e9):
        got = [
            optimal_attack(
                HypothesisPair(DensityOperator.from_diagonal([0.6, 0.4, 0.0]),
                               DensityOperator.from_diagonal(np.array([0.06, 0.04, 0.9]) * scale), 0.5, 0.5),
                pi1,
                lam,
            ).utility
            for scale in (1.0, 1.0 + 5e-11)
        ]
        assert abs(got[0] - got[1]) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=-6.0, max_value=15.0),
)
def test_utility_envelope_property(seed, d, exponent):
    # relative entropy is nonnegative and rho1 itself is feasible, so the
    # optimal utility lies between the genuine and the undistorted rate
    lam = 10.0**exponent
    pair = random_pair(np.random.default_rng(seed), d)
    hel = helstrom_measurement(pair)
    sol = optimal_attack(pair, hel.pi1, lam)
    assert all(math.isfinite(x) for x in (sol.utility, sol.z1, sol.genuine_p_detect))
    assert sol.genuine_p_detect - BOUND_TOL <= sol.utility <= hel.p_detect + BOUND_TOL
    if lam <= 1e3:
        audit = attacker_utility(sol.rho1_prime, sol.rho0_prime, hel.pi1, pair, lam)
        assert abs(sol.utility - audit) <= ORACLE_UTILITY_TOL


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=-6.0, max_value=15.0))
def test_diagonal_utility_matches_exact_reference(seed, exponent):
    # for a diagonal pair Z1 = sum_i r_i e^(-p_i/lam) exactly (r normalized,
    # p the projector's 0/1 diagonal); log1p(sum_i r_i expm1(-p_i/lam)) is
    # exact while Z1 >= 1/2, and below that the log-sum-exp m + ln sum e^(x - m)
    # of the exponents x = ln r_i - p_i/lam on the support is, where the
    # plain sum can underflow to 0
    lam = 10.0**exponent
    pair = _spectrum_pair("radar", np.random.default_rng(seed), 0)
    pi1 = helstrom_measurement(pair).pi1
    r = np.diag(pair.rho1.matrix).real
    r = r / r.sum()
    p = np.diag(pi1.matrix).real
    support = r > operators.EIGEN_ZERO_TOL
    s = float(np.sum(r * np.expm1(-p / lam)))
    if s >= -0.5:
        log_z1 = math.log1p(s)
    else:
        x = np.log(r[support]) - p[support] / lam
        m = float(np.max(x))
        log_z1 = m + math.log(float(np.sum(np.exp(x - m))))
    tol = 1e-12
    if lam < SERIES_PRICE:
        # rounding of the exponent's entries ln r_i - p_i/lam, scaled by lam
        tol += 4 * np.finfo(float).eps * lam * float(np.max(np.abs(np.log(r[support]) - p[support] / lam)))
    else:
        # series truncation: the third cumulant of a 0/1 observable is below 1/(6 sqrt 3)
        tol += 0.02 / lam**2
    assert abs(optimal_attack(pair, pi1, lam).utility - (-lam * log_z1)) <= tol


# ---------------------------------------------------------------- bounds

def test_detection_bounds_radar():
    lower, upper = detection_bounds(0.9, 1.0)
    assert upper == 0.9
    assert abs(lower - 0.9 / E) <= 1e-15
    assert abs(lower - 0.33109149705429806) <= 1e-12


def test_detection_bounds_large_lambda_collapse():
    lower, upper = detection_bounds(0.7, 1e9)
    assert upper - lower <= 1e-9


def test_bound_report_radar_within():
    _, _, sol = radar_attack(1.0)
    rep = BoundReport.evaluate(0.9, sol.genuine_p_detect, 1.0)
    assert rep.lower_satisfied and rep.upper_satisfied
    assert rep.lower <= sol.genuine_p_detect <= rep.upper


def test_bound_report_flags_violations():
    rep = BoundReport.evaluate(0.9, 0.95, 1.0)
    assert not rep.upper_satisfied
    rep = BoundReport.evaluate(0.9, 0.1, 1.0)
    assert not rep.lower_satisfied


def test_bounds_hold_on_commuting_instances():
    rng = np.random.default_rng(12)
    for _ in range(15):
        pair = random_commuting_pair(rng, int(rng.integers(2, 7)))
        res = helstrom_measurement(pair)
        for lam in (0.2, 0.5, 1.0, 2.0, 5.0):
            sol = optimal_attack(pair, res.pi1, lam)
            rep = BoundReport.evaluate(res.p_detect, sol.genuine_p_detect, lam)
            assert rep.lower_satisfied and rep.upper_satisfied


def test_upper_bound_holds_on_generic_instances():
    rng = np.random.default_rng(13)
    for _ in range(15):
        pair = random_pair(rng, int(rng.integers(2, 7)))
        res = helstrom_measurement(pair)
        for lam in (0.2, 1.0, 5.0):
            sol = optimal_attack(pair, res.pi1, lam)
            assert sol.genuine_p_detect <= res.p_detect + 1e-9


def test_genuine_rate_monotone_in_lambda():
    pair = radar_pair()
    res = helstrom_measurement(pair)
    lams = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
    got = [optimal_attack(pair, res.pi1, lam).genuine_p_detect for lam in lams]
    assert all(b >= a - 1e-12 for a, b in zip(got, got[1:]))
    # commuting radar collapses to a scalar formula
    for lam, pd in zip(lams, got):
        q = 0.9 * math.exp(-1.0 / lam)
        assert abs(pd - q / (0.1 + q)) <= 1e-12


# ---------------------------------------------------------------- oracle

def test_oracle_matches_logistic_solution():
    # rho1 = I/2 and a rank-one penalty reduce to one scalar variable;
    # the in-test golden-section minimum and the logistic closed form agree
    pair = HypothesisPair(
        rho0=DensityOperator.maximally_mixed(2),
        rho1=DensityOperator.maximally_mixed(2),
        c0=0.5,
        c1=0.5,
    )
    pi1 = ProjectorMeasurement(np.diag([1.0, 0.0]))

    def objective(s):
        return s + s * math.log(2 * s) + (1 - s) * math.log(2 * (1 - s))

    lo, hi = 1e-6, 1 - 1e-6
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(200):
        if objective(c) < objective(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    s_scan = (a + b) / 2

    s_want = 1.0 / (1.0 + E)
    assert abs(s_scan - s_want) <= 1e-7  # golden-section fixed-point limit
    sigma = oracle_attack(pair, pi1, 1.0)
    got = np.diag(sigma.matrix).real
    assert abs(got[0] - s_want) <= 1e-7
    assert abs(got[1] - E / (1.0 + E)) <= 1e-7


def test_oracle_matches_closed_form_commuting():
    pair = radar_pair()
    res = helstrom_measurement(pair)
    sol = optimal_attack(pair, res.pi1, 1.0)
    sigma = oracle_attack(pair, res.pi1, 1.0)
    assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= 1e-6


def test_oracle_matches_closed_form_noncommuting():
    rng = np.random.default_rng(99)
    pair = random_pair(rng, 2)
    res = helstrom_measurement(pair)
    for lam in (0.5, 2.0):
        sol = optimal_attack(pair, res.pi1, lam)
        sigma = oracle_attack(pair, res.pi1, lam)
        assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= 1e-5
        gap = attacker_utility(sigma, pair.rho0, res.pi1, pair, lam) - sol.utility
        assert -ORACLE_TOL <= gap <= ORACLE_TOL


def test_oracle_nonconvergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(adversary, "ORACLE_ITERATIONS", 2)
    rng = np.random.default_rng(3)
    pair = random_pair(rng, 4)
    res = helstrom_measurement(pair)
    with pytest.raises(OracleConvergenceError) as err:
        oracle_attack(pair, res.pi1, 0.5)
    assert isinstance(err.value.best_state, DensityOperator)
    assert err.value.iterations == 2
    assert math.isfinite(err.value.best_utility)


def test_oracle_matches_closed_form_on_rank_deficient_rho1():
    # rho1 of rank 2 in a Haar basis: the oracle's lift puts zero weight on
    # the two kernel columns, as the closed form does
    rng = np.random.default_rng(8)
    u = haar_unitary(rng, 4)
    rho1 = DensityOperator(u @ np.diag([0.6, 0.4, 0.0, 0.0]) @ u.conj().T)
    pair = HypothesisPair(random_density(rng, 4, 1e-3), rho1, 0.5, 0.5)
    pi1 = helstrom_measurement(pair).pi1
    for lam in (0.5, 1.0, 2.0, 5.0):
        sol = optimal_attack(pair, pi1, lam)
        sigma = oracle_attack(pair, pi1, lam)
        assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= ORACLE_STATE_TOL
        gap = attacker_utility(sigma, pair.rho0, pi1, pair, lam) - sol.utility
        assert abs(gap) <= ORACLE_UTILITY_TOL


def test_oracle_eigh_budget(monkeypatch):
    # each chart point the oracle visits is decomposed once, and Newton
    # steps need few points: these six calls take 36 with the decrement
    # stop (63 with the improvement and gradient-norm stops it replaced),
    # where L-BFGS alone took 199 and Barzilai-Borwein steepest descent,
    # which also decomposed every accepted point a second time for its
    # gradient, 766
    cases = []
    for seed, d in ((3, 4), (99, 2), (21, 6)):
        pair = random_pair(np.random.default_rng(seed), d)
        cases.append((pair, helstrom_measurement(pair).pi1))
    calls = _count_decompositions(monkeypatch)
    for pair, pi1 in cases:
        for lam in (0.5, 5.0):
            oracle_attack(pair, pi1, lam)
    assert calls["eigh"] <= 70


def test_oracle_newton_step_is_capped():
    # on this d = 2 pair an uncapped Newton step from ln rho1 moves max|h|
    # from 1.4 to 15.8, onto the chart's flat boundary, where the search
    # stops 0.13 above the minimum without an OracleConvergenceError
    rng = np.random.default_rng(56000183)
    pair = verify._draw_pair(rng, VerifyOptions())
    assert pair.rho1.dim == 2
    pi1 = helstrom_measurement(pair).pi1
    sol = optimal_attack(pair, pi1, 0.5)
    sigma = oracle_attack(pair, pi1, 0.5)
    assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= ORACLE_STATE_TOL


@pytest.mark.parametrize("lam", [1e-2, 1e-3, 1e-4, 1e-6])
def test_oracle_with_a_chart_spectrum_wider_than_sinh_range(monkeypatch, lam):
    # rho1's support spectrum (1 - 1e-11, 1e-11) and a small price spread the
    # chart's exponent over more than 1420, where sinh of the half-gap
    # overflowed: the oracle then landed about 1e-3 off the closed form
    rng = np.random.default_rng(0)
    u1 = haar_unitary(rng, 3)
    u0 = haar_unitary(rng, 3)
    rho1 = DensityOperator(u1 @ np.diag([1.0 - 1e-11, 1e-11, 0.0]) @ u1.conj().T)
    rho0 = DensityOperator(u0 @ np.diag([0.5, 0.3, 0.2]) @ u0.conj().T)
    pair = HypothesisPair(rho0, rho1, 0.5, 0.5)
    pi1 = helstrom_measurement(pair).pi1
    sol = optimal_attack(pair, pi1, lam)
    # the Hessian is not positive definite at nearly every point here;
    # L-BFGS steps took 2480-3068 points
    points = _count_calls(monkeypatch, adversary, "_chart_point")
    sigma = oracle_attack(pair, pi1, lam)
    assert len(points) <= 100
    assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= ORACLE_STATE_TOL


def test_oracle_on_a_rank_one_rho1_stops_at_its_one_chart_point(monkeypatch):
    # the chart of a pure rho1 is a single point, where the gradient is 0
    # and the Hessian's one entry is lam: the zero decrement stops the
    # oracle at once, on the closed form's state
    rng = np.random.default_rng(4)
    u = haar_unitary(rng, 3)
    rho1 = DensityOperator(u @ np.diag([1.0, 0.0, 0.0]) @ u.conj().T)
    pair = HypothesisPair(random_density(rng, 3, 1e-3), rho1, 0.5, 0.5)
    pi1 = helstrom_measurement(pair).pi1
    sol = optimal_attack(pair, pi1, 1.0)
    points = _count_calls(monkeypatch, adversary, "_chart_point")
    directions = _count_calls(monkeypatch, adversary, "_newton_direction")
    sigma = oracle_attack(pair, pi1, 1.0)
    assert len(points) == 1 and len(directions) == 1
    assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= ORACLE_STATE_TOL


def _oracle_events(monkeypatch):
    """One log of the oracle's chart points ("P") and Newton directions ("D"), in call order."""
    events = []
    for name, tag in (("_chart_point", "P"), ("_newton_direction", "D")):
        inner = getattr(adversary, name)

        def counted(*args, _inner=inner, _tag=tag):
            events.append(_tag)
            return _inner(*args)

        monkeypatch.setattr(adversary, name, counted)
    return events


def _trial_points(events):
    """The trial points of each iteration of one lone oracle run (0 where it stopped)."""
    return [len(run) for run in "".join(events).split("D")[1:]]


def _lone_oracle(pair, pi1, lam):
    try:
        return oracle_attack(pair, pi1, lam)
    except OracleConvergenceError as exc:
        return exc


def _assert_same_oracle_result(a, b):
    assert type(a) is type(b)
    if isinstance(a, OracleConvergenceError):
        assert (str(a), a.best_utility, a.iterations) == (str(b), b.best_utility, b.iterations)
        a, b = a.best_state, b.best_state
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)
    assert np.array_equal(a.spectrum.eigenvectors, b.spectrum.eigenvectors)


# the first pair verify --seed 283 draws, at d = 2: at 2.0 the first line
# search backtracks where the other prices take their full steps, and
# 1e15 stops at its first chart point
BACKTRACKING_PAIR_SEED = 283
ORACLE_PRICES = (0.5, 1.0, 2.0, 5.0, 1e15)


def _oracle_case(case):
    if case == "backtracking":
        pair = verify._draw_pair(np.random.default_rng(BACKTRACKING_PAIR_SEED), VerifyOptions())
    elif case == "rank3_of_6":
        pair = _rank_deficient_pair(np.random.default_rng(71), 6, 3)
    else:
        pair = random_pair(np.random.default_rng(70 + int(case[1:])), int(case[1:]))
    return pair, helstrom_measurement(pair).pi1


@pytest.mark.parametrize("prices", [ORACLE_PRICES, VerifyOptions().lambdas], ids=["with_1e15", "verify"])
@pytest.mark.parametrize("case", ["d2", "d3", "d4", "d5", "d6", "d10", "rank3_of_6", "backtracking"])
def test_stacked_oracle_equals_each_price_alone(case, prices):
    # without 1e15 every price is in the first line search, so the
    # backtracking price shares its first round with all the others
    pair, pi1 = _oracle_case(case)
    stacked = adversary._oracle_attacks(pair, pi1, prices)
    assert len(stacked) == len(prices)
    for lam, got in zip(prices, stacked):
        assert isinstance(got, DensityOperator)
        _assert_same_oracle_result(got, _lone_oracle(pair, pi1, lam))


def test_stacked_oracle_case_backtracks_beside_full_steps(monkeypatch):
    # what the "backtracking" case above covers: one price backtracks in
    # the first line search while the others take their full steps, and
    # one price stops before any line search
    pair, pi1 = _oracle_case("backtracking")
    events = _oracle_events(monkeypatch)
    first_search = {}
    for lam in ORACLE_PRICES:
        events.clear()
        oracle_attack(pair, pi1, lam)
        first_search[lam] = _trial_points(events)[0]
    assert first_search == {0.5: 1, 1.0: 1, 2.0: 2, 5.0: 1, 1e15: 0}


@pytest.mark.parametrize("case", ["d4", "rank3_of_6", "backtracking"])
def test_stacked_oracle_prices_that_run_out_carry_the_lone_error(monkeypatch, case):
    # two accepted steps are too few for every finite price but 1e15,
    # which stops at its first point
    monkeypatch.setattr(adversary, "ORACLE_ITERATIONS", 2)
    pair, pi1 = _oracle_case(case)
    stacked = adversary._oracle_attacks(pair, pi1, ORACLE_PRICES)
    lone = [_lone_oracle(pair, pi1, lam) for lam in ORACLE_PRICES]
    assert [isinstance(out, OracleConvergenceError) for out in lone] == [True] * 4 + [False]
    for a, b in zip(stacked, lone):
        _assert_same_oracle_result(a, b)


def test_verify_oracle_check_makes_one_chart_call_per_lockstep_round(monkeypatch):
    # check 1 runs an instance's prices as one stack, and each round of trial
    # points is one _chart_point call: as many calls as the longest price
    # alone, plus one for each line search in which another price backtracks
    # further (here 2.0 in the first), not the sum over the prices
    options = VerifyOptions(instances=1, channel_instances=1)
    pair, pi1 = _oracle_case("backtracking")
    events = _oracle_events(monkeypatch)
    lone = []
    for lam in options.lambdas:
        events.clear()
        oracle_attack(pair, pi1, lam)
        lone.append(_trial_points(events))
    own = [1 + sum(points) for points in lone]
    longest = max(map(len, lone))
    rounds = 1 + sum(max(points[i] if i < len(points) else 0 for points in lone) for i in range(longest))
    events.clear()
    assert verify.run_verification(BACKTRACKING_PAIR_SEED, options).ok
    assert events.count("P") == rounds
    assert events.count("D") == longest
    assert max(own) < rounds < sum(own)


def test_exp_divided_differences_of_far_apart_points():
    # (e^a - e^b)/(a - b) at a gap of 2000, finite however far apart a and b lie
    w = np.array([0.0, -2000.0, 5.0, 5.0 + 1e-9])
    phi = _exp_divided_differences(w)
    assert np.isfinite(phi).all()
    assert phi[0, 1] == phi[1, 0] == 1.0 / 2000.0
    assert abs(phi[2, 0] - (math.exp(5.0) - 1.0) / 5.0) <= 1e-15 * phi[2, 0]
    assert abs(phi[2, 3] - math.exp(5.0 + 0.5e-9)) <= 1e-15 * phi[2, 3]
    assert np.array_equal(np.diag(phi), np.exp(w))


@pytest.mark.parametrize("dim", [10, 32])
def test_oracle_converges_at_support_ranks_above_ten(dim):
    # the entrywise Newton direction costs O(n^3), so it also serves ranks
    # where an n^2 x n^2 Hessian would cost n^6
    pair = random_pair(np.random.default_rng(12), dim)
    pi1 = helstrom_measurement(pair).pi1
    assert pair.rho1.spectrum.eigenvalues.min() > 0.0
    sol = optimal_attack(pair, pi1, 1.0)
    sigma = oracle_attack(pair, pi1, 1.0)
    assert np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix) <= ORACLE_STATE_TOL


@pytest.mark.parametrize("lam", [0.5, 1.3, 1e3])
def test_chart_value_is_invariant_under_identity_shifts(lam):
    # e^(h + cI) / Tr e^(h + cI) is the same state for every c; with the
    # exponentials shifted by the top eigenvalue no c overflows or underflows
    rng = np.random.default_rng(5)
    pair = random_pair(rng, 4)
    r, v = np.linalg.eigh(pair.rho1.matrix)
    pi_s = v.conj().T @ helstrom_measurement(pair).pi1.matrix @ v
    log_r = np.log(r)
    cost = pi_s - lam * np.diag(log_r)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = np.diag(log_r).astype(np.complex128) + 0.3 * (g + g.conj().T) / 2
    base = _chart_point(h, cost, lam).value
    for c in (-800.0, 0.0, 800.0):
        value = _chart_point(h + c * np.eye(4), cost, lam).value
        assert abs(value - base) <= 1e-9 * max(1.0, lam)


def _gradient_at(h, cost, lam):
    point = _chart_point(h, cost, lam)
    return _chart_gradient(point, _chart_cost(point, cost, lam), _exp_divided_differences(point.w))


def test_chart_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    dim = 3
    pair = random_pair(rng, dim)
    res = helstrom_measurement(pair)
    v = np.linalg.eigh(pair.rho1.matrix)[1]
    pi_s = v.conj().T @ res.pi1.matrix @ v
    log_r = np.log(np.linalg.eigvalsh(pair.rho1.matrix))
    h = np.diag(log_r).astype(np.complex128)
    h += 0.05 * (lambda a: (a + a.conj().T) / 2)(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    cost = pi_s - 1.3 * np.diag(log_r)
    point = _chart_point(h, cost, 1.3)
    val, grad = point.value, _gradient_at(h, cost, 1.3)
    eps = 1e-6
    for i in range(dim):
        for j in range(i, dim):
            de = np.zeros((dim, dim), dtype=np.complex128)
            if i == j:
                de[i, i] = 1.0
            else:
                de[i, j] = de[j, i] = 0.5  # real symmetric direction
            num = (
                _chart_point(h + eps * de, cost, 1.3).value
                - _chart_point(h - eps * de, cost, 1.3).value
            ) / (2 * eps)
            ana = float(np.real(np.sum(grad.conj() * de)))
            assert abs(num - ana) <= 1e-6 * max(1.0, abs(num))
    assert math.isfinite(val)


def test_chart_hessian_is_entrywise_at_the_minimizer():
    # at the closed form's exponent h = ln r - pi_s/lam (taken here, never
    # by the oracle) the gradient vanishes, A~ = mean I and the entrywise
    # Hessian is D = lam phi / z; central differences of the gradient along
    # each entry direction X of h's eigenbasis are D o X, up to a multiple
    # of diag(p) on the diagonal, and Newton's direction for the gradient
    # u (D o X) u^dagger is -X
    rng = np.random.default_rng(21)
    dim, lam = 3, 1.3
    pair = random_pair(rng, dim)
    r, v = np.linalg.eigh(pair.rho1.matrix)
    pi_s = v.conj().T @ helstrom_measurement(pair).pi1.matrix @ v
    cost = pi_s - lam * np.diag(np.log(r))
    h = np.diag(np.log(r)).astype(np.complex128) - pi_s / lam
    point = _chart_point(h, cost, lam)
    a, phi = _chart_cost(point, cost, lam), _exp_divided_differences(point.w)
    assert np.abs(_chart_gradient(point, a, phi)).max() <= 1e-14
    d = lam * phi / point.z
    u, p, eps = point.u, point.p, 1e-5
    for i in range(dim):
        for j in range(i, dim):
            for entry in (1.0,) if i == j else (1.0, 1j):
                x = np.zeros((dim, dim), dtype=np.complex128)
                x[i, j], x[j, i] = entry, np.conj(entry)
                b = u @ x @ u.conj().T
                diff = _gradient_at(h + eps * b, cost, lam) - _gradient_at(h - eps * b, cost, lam)
                residual = u.conj().T @ diff @ u / (2 * eps) - d * x
                if i == j:
                    residual -= (np.vdot(p, np.diag(residual)).real / np.dot(p, p)) * np.diag(p)
                assert np.abs(residual).max() <= 1e-6 * np.abs(d).max()
                direction = _newton_direction(point, a, phi, 0.1 * u @ (d * x) @ u.conj().T, lam)
                assert np.abs(u.conj().T @ direction @ u + 0.1 * x).max() <= 1e-14


# ---------------------------------------------------------------- perturbation

def test_overlap_weights_radar():
    pair = radar_pair()
    pi1 = ProjectorMeasurement(np.diag([0.0, 0.0, 1.0]))
    beta = perturbation_estimate(pair, pi1, 1.0).beta
    assert np.allclose(beta, [1.0, 0.0, 0.0], atol=1e-14)


def test_overlap_weights_sum_to_rank():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rho = random_density(rng, 5, min_eigenvalue=1e-3)
        pi = random_projector(rng, 5)
        pair = HypothesisPair(rho0=DensityOperator.maximally_mixed(5), rho1=rho, c0=0.5, c1=0.5)
        beta = perturbation_estimate(pair, pi, 1.0).beta
        assert abs(beta.sum() - pi.rank) <= 1e-10
        assert np.all(beta >= -1e-12) and np.all(beta <= 1 + 1e-12)


def test_gap_condition_sums_handmade():
    # rho1 = diag(0.7, 0.3), projector onto (1,1)/sqrt(2):
    # off-diagonal coupling 0.5 against the gap 0.4 gives 1.25 on both rows
    rho1 = DensityOperator.from_diagonal([0.7, 0.3])
    pi1 = ProjectorMeasurement(np.full((2, 2), 0.5))
    sums = gap_condition_sums(rho1, pi1)
    assert np.allclose(sums, [1.25, 1.25], atol=1e-12)


def _gap_condition_sums_loop(rho1, pi1):
    """Reference: the per-entry double loop over rho1's support levels (the
    eigenvalues above ``EIGEN_ZERO_TOL``), with ``inf`` on a zero gap."""
    dec = spectral_decompose(rho1.matrix)
    v, r = dec.eigenvectors, dec.eigenvalues
    overlap = np.abs(v.conj().T @ np.asarray(pi1.matrix) @ v)
    d = int(np.sum(r > operators.EIGEN_ZERO_TOL))
    out = np.zeros(d)
    for i in range(d):
        acc = 0.0
        for j in range(d):
            if j == i:
                continue
            gap = abs(r[i] - r[j])
            if gap == 0.0:
                acc = math.inf
                break
            acc += overlap[i, j] / gap
        out[i] = acc
    return out


def test_gap_condition_sums_match_loop_reference():
    rng = np.random.default_rng(41)
    eps = np.finfo(np.float64).eps
    for d in (2, 3, 5, 8, 13):
        for _ in range(4):
            rho = random_density(rng, d, min_eigenvalue=1e-3)
            pi = random_projector(rng, d)
            got = gap_condition_sums(rho, pi)
            want = _gap_condition_sums_loop(rho, pi)
            # d summands, each off by a few ulps of the largest term
            assert np.all(np.abs(got - want) <= 4 * d * eps * np.maximum(1.0, np.abs(want)))


def test_gap_condition_sums_inf_on_zero_gap():
    rho1 = DensityOperator.from_diagonal([0.4, 0.4, 0.2])
    pi1 = ProjectorMeasurement(np.full((3, 3), 1.0 / 3.0))
    got = gap_condition_sums(rho1, pi1)
    want = _gap_condition_sums_loop(rho1, pi1)
    assert list(np.isinf(got)) == list(np.isinf(want)) == [True, True, False]
    assert abs(got[2] - want[2]) <= 1e-15 * want[2]


def test_gap_condition_sums_commuting_are_zero():
    pair = radar_pair()
    pi1 = ProjectorMeasurement(np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(gap_condition_sums(pair.rho1, pi1), 0.0, atol=1e-14)


def _kernel_coupled_case(coupling):
    """rho1 = diag(0.6, 0.4, 0) and the projector onto (1, coupling, 1)
    normalized: level 0 meets the kernel level through Pi1[0, 2] = 1/|.|^2."""
    v = np.array([1.0, coupling, 1.0])
    pair = HypothesisPair(DensityOperator.maximally_mixed(3), DensityOperator.from_diagonal([0.6, 0.4, 0.0]), 0.5, 0.5)
    return pair, ProjectorMeasurement(np.outer(v, v) / (v @ v))


def test_gap_condition_sums_run_over_the_support_levels():
    # one entry per support level; a sum that also ran over the kernel level
    # would read 1.078 on level 0, where the support sum is 0.249
    pair, pi1 = _kernel_coupled_case(0.1)
    got = gap_condition_sums(pair.rho1, pi1)
    want = _gap_condition_sums_loop(pair.rho1, pi1)
    assert got.shape == want.shape == (2,)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(np.float64).eps * want)
    assert np.allclose(got, 0.1 / 2.01 / 0.2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("coupling,holds", [(0.1, True), (1.0, False)])
def test_perturbation_gap_sums_are_the_gap_condition_sums_at_every_rank(coupling, holds):
    pair, pi1 = _kernel_coupled_case(coupling)
    sums = gap_condition_sums(pair.rho1, pi1)
    for lam in (2.0, 10.0):
        rep = perturbation_estimate(pair, pi1, lam)
        assert np.array_equal(rep.gap_sums, sums)
        assert rep.gap_condition_holds is holds
        assert holds == bool(np.all(sums < 1.0))
        assert not rep.full_rank and not rep.applicable


def _cut_rho1(rng, d):
    """A pair of one of ``sampling``'s kinds with rho1 cut to its top k
    levels (1 <= k < d, renormalized) in its own eigenbasis."""
    pair = (near_commuting_pair, random_commuting_pair, random_pair)[int(rng.integers(0, 3))](rng, d)
    w, x = pair.rho1.spectrum.eigenvalues, pair.rho1.spectrum.eigenvectors
    p = np.where(np.arange(d) < rng.integers(1, d), w, 0.0)
    return HypothesisPair(pair.rho0, DensityOperator((x * (p / p.sum())) @ x.conj().T), 0.5, 0.5)


def test_support_gap_condition_keeps_the_lower_bound_on_rank_deficient_pairs():
    # wherever every support-level sum is below one, the attack at lam >= 2
    # keeps genuine P_D >= P_D e^(-1/lam) - BOUND_TOL
    rng = np.random.default_rng(2025)
    asserted = 0
    for _ in range(100):
        pair = _cut_rho1(rng, int(rng.integers(3, 8)))
        hel = helstrom_measurement(pair)
        if not np.all(gap_condition_sums(pair.rho1, hel.pi1) < 1.0):
            continue
        for lam in (2.0, 5.0):
            sol = optimal_attack(pair, hel.pi1, lam)
            assert BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, lam).lower_satisfied
            asserted += 1
    assert asserted >= 100


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda pair, pi1: optimal_attack(pair, pi1, 1.0), id="optimal_attack"),
        pytest.param(lambda pair, pi1: oracle_attack(pair, pi1, 1.0), id="oracle_attack"),
        pytest.param(lambda pair, pi1: perturbation_estimate(pair, pi1, 1.0), id="perturbation_estimate"),
        pytest.param(lambda pair, pi1: gap_condition_sums(pair.rho1, pi1), id="gap_condition_sums"),
    ],
)
def test_projector_of_another_dimension_is_refused(call):
    # the chart builder's one shape check, in trace_product's words
    pair = HypothesisPair(DensityOperator.maximally_mixed(3), DensityOperator.from_diagonal([0.5, 0.3, 0.2]), 0.5, 0.5)
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"):
        call(pair, ProjectorMeasurement(np.diag([1.0, 0.0])))


ENTRY_POINTS = [
    pytest.param(lambda pair, pi1: optimal_attack(pair, pi1, 1.0), id="optimal_attack"),
    pytest.param(lambda pair, pi1: oracle_attack(pair, pi1, 1.0), id="oracle_attack"),
    pytest.param(lambda pair, pi1: perturbation_estimate(pair, pi1, 1.0), id="perturbation_estimate"),
]


@pytest.mark.parametrize("call", ENTRY_POINTS)
@pytest.mark.parametrize(
    "pi1,message",
    [
        (5.0 * np.eye(3), r"^not a projector: \|\|Pi\^2 - Pi\|\|_F = 3\.464e\+01$"),
        (np.diag([1e300, 0.0, 0.0]), r"^not a projector: \|\|Pi\^2 - Pi\|\|_F = nan$"),
        (np.full((3, 3), np.nan), r"^matrix contains non-finite entries$"),
    ],
    ids=["five-identity", "huge-entry", "nan"],
)
def test_a_bare_array_that_is_no_projector_is_refused_where_it_enters(call, pi1, message):
    # the oracle used to return a state for 5 I and fail inside eigh on NaN;
    # the closed form refused 5 I only through its rate check
    with pytest.raises(ValueError, match=message):
        call(random_pair(np.random.default_rng(1), 3), pi1)


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_a_bare_projector_gives_the_projector_measurement_result(call):
    # a bare array enters as the symmetrized matrix its ProjectorMeasurement stores
    pair = random_pair(np.random.default_rng(4), 4)
    pi1 = random_projector(np.random.default_rng(5), 4, 2).matrix.copy()
    pi1[0, 1] += 1e-12
    bare = call(pair, pi1)
    measured = call(pair, ProjectorMeasurement(pi1))
    if isinstance(bare, DensityOperator):
        assert bare.matrix.tobytes() == measured.matrix.tobytes()
    elif isinstance(bare, PerturbationReport):
        assert bare.exact.tobytes() == measured.exact.tobytes()
    else:
        assert bare.rho1_prime.matrix.tobytes() == measured.rho1_prime.matrix.tobytes()
        assert (bare.utility, bare.genuine_p_false) == (measured.utility, measured.genuine_p_false)


def _clusters_and_matching_loop(pair, pi1, lam):
    """Reference: cluster flags and overlap matching, one level at a time."""
    view = adversary._attack_view(pair.rho1.spectrum.eigenvalues, pair.rho1.spectrum.eigenvectors, pi1.matrix)
    r, pi_s = view.r, view.pi_s
    n = r.shape[0]
    cluster = np.zeros(n, dtype=bool)
    for i in range(n - 1):
        if r[i] - r[i + 1] < adversary.CLUSTER_TOL:
            cluster[i] = cluster[i + 1] = True
    w, u = np.linalg.eigh(hermitian_part(np.diag(np.log(r).astype(np.complex128)) - pi_s / lam))
    weights = np.abs(u) ** 2
    matched, overlap, ok, taken = [], [], True, set()
    for i in range(n):
        k = int(np.argmax(weights[i]))
        matched.append(k)
        overlap.append(float(weights[i, k]))
        if k in taken or overlap[-1] < 0.5:
            ok = False
        taken.add(k)
    return cluster, w[matched], np.array(overlap), ok


def test_perturbation_clusters_and_matching_match_loop_reference():
    rng = np.random.default_rng(43)
    cases = []
    for d in (2, 4, 6):
        for _ in range(3):
            pair = random_pair(rng, d)
            projectors = (helstrom_measurement(pair).pi1, random_projector(rng, d))
            cases += [(pair, pi, lam) for pi in projectors for lam in (0.01, 0.3, 10.0)]
    for diag in ([0.4, 0.4, 0.2], [0.5, 0.5 - 1e-9, 1e-9], [0.6, 0.4, 0.0], [0.3, 0.3, 0.3 + 1e-9, 0.1 - 1e-9]):
        pair = HypothesisPair(DensityOperator.maximally_mixed(len(diag)), DensityOperator.from_diagonal(diag), 0.5, 0.5)
        cases += [(pair, random_projector(rng, len(diag)), lam) for lam in (0.001, 0.05, 10.0)]
    seen = set()
    for pair, pi1, lam in cases:
        rep = perturbation_estimate(pair, pi1, lam)
        cluster, exact, overlap, ok = _clusters_and_matching_loop(pair, pi1, lam)
        assert np.array_equal(rep.cluster_flags, cluster)
        assert rep.simple_spectrum == (not cluster.any())
        assert np.array_equal(rep.exact, exact) and np.array_equal(rep.match_overlap, overlap)
        assert rep.matching_ok is ok
        seen.add((bool(cluster.any()), ok))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_perturbation_zero_projector_exact():
    pair = radar_pair()
    rep = perturbation_estimate(pair, ProjectorMeasurement.zero(3), 10.0)
    assert rep.max_residual == 0.0


def test_perturbation_commuting_exact():
    pair = radar_pair()
    pi1 = ProjectorMeasurement(np.diag([0.0, 0.0, 1.0]))
    rep = perturbation_estimate(pair, pi1, 10.0)
    assert rep.applicable
    assert rep.max_residual <= 1e-12


def test_perturbation_residual_shrinks_with_lambda():
    rng = np.random.default_rng(17)
    spectrum = np.array([0.4, 0.3, 0.2, 0.1])
    from qspoof.sampling import haar_unitary

    u = haar_unitary(rng, 4)
    rho1 = DensityOperator(u @ np.diag(spectrum) @ u.conj().T)
    pair = HypothesisPair(
        rho0=DensityOperator.maximally_mixed(4), rho1=rho1, c0=0.5, c1=0.5
    )
    pi1 = random_projector(rng, 4, rank=2)
    r10 = perturbation_estimate(pair, pi1, 10.0)
    r100 = perturbation_estimate(pair, pi1, 100.0)
    assert r10.applicable and r100.applicable
    assert r100.max_residual <= 1e-3
    assert r10.max_residual / r100.max_residual >= 50.0


def test_perturbation_flags_rank_deficiency():
    pair = HypothesisPair(
        rho0=DensityOperator.maximally_mixed(3),
        rho1=DensityOperator.from_diagonal([0.6, 0.4, 0.0]),
        c0=0.5,
        c1=0.5,
    )
    rep = perturbation_estimate(pair, ProjectorMeasurement.zero(3), 10.0)
    assert not rep.full_rank
    assert not rep.applicable
    assert rep.residual.shape == (2,)  # sized to the support


def test_perturbation_flags_degenerate_spectrum():
    pair = HypothesisPair(
        rho0=DensityOperator.maximally_mixed(3),
        rho1=DensityOperator.from_diagonal([0.4, 0.4, 0.2]),
        c0=0.5,
        c1=0.5,
    )
    rep = perturbation_estimate(pair, ProjectorMeasurement.zero(3), 10.0)
    assert not rep.simple_spectrum
    assert rep.cluster_flags.any()
    assert not rep.applicable


def test_perturbation_gap_condition_flag():
    rng = np.random.default_rng(23)
    pair = near_commuting_pair(rng, 4)
    res = helstrom_measurement(pair)
    rep = perturbation_estimate(pair, res.pi1, 10.0)
    assert rep.gap_condition_holds == bool(np.all(rep.gap_sums < 1.0))
