"""Self-verification harness: check wiring, seeds, commuting-only mode."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qspoof import (
    DensityOperator,
    HypothesisPair,
    OracleConvergenceError,
    helstrom_measurement,
    perturbation_estimate,
)
from qspoof import adversary, verify
from qspoof.config import VerifyOptions
from qspoof.operators import _hermitian
from qspoof.sampling import haar_unitary, random_density
from qspoof.serialize import json_text
from qspoof.verify import run_verification

SMALL = dict(instances=5, max_dim=3, lambdas=(1.0,), channel_instances=5)
# one instance per suite at d <= 3: only the perturbation check works at d = 4
TINY = VerifyOptions(instances=1, max_dim=3, lambdas=(1.0, 2.0), channel_instances=1)


def test_all_checks_pass_on_small_run():
    report = run_verification(seed=0, options=VerifyOptions(**SMALL))
    assert report.ok
    assert len(report.checks) == 5
    assert report.wall_clock_seconds > 0.0


def test_report_dict_shape():
    report = run_verification(seed=0, options=VerifyOptions(**SMALL))
    d = report.to_dict()
    assert d["ok"] is True
    assert d["seed"] == 0
    assert d["options"]["instances"] == 5
    by_name = {c["name"]: c for c in d["checks"]}
    oracle = by_name["closed_form_vs_oracle"]
    assert oracle["stats"]["max_state_residual"] <= 1e-5
    assert oracle["stats"]["max_utility_gap"] <= 1e-6
    assert oracle["stats"]["non_convergences"] == 0
    envelope = by_name["detection_rate_envelope"]
    assert envelope["stats"]["upper_violations"] == 0
    assert envelope["stats"]["lower_violations"] == 0
    assert by_name["false_alarm_equality"]["passed"]


def test_runs_reproducible_for_fixed_seed():
    a = run_verification(seed=3, options=VerifyOptions(**SMALL)).to_dict()
    b = run_verification(seed=3, options=VerifyOptions(**SMALL)).to_dict()
    a.pop("wall_clock_seconds")
    b.pop("wall_clock_seconds")
    assert a == b


def test_false_alarm_check_reads_every_attack_of_check_1(monkeypatch):
    # check 4 draws no pairs of its own: one ulp off in the genuine
    # false-alarm rate of check 1's last (instance, price) attack fails it
    calls = []
    inner = verify._optimal_attacks

    def last_one_off(pair, pi1, lams):
        sols = inner(pair, pi1, lams)
        calls.append(len(sols))
        if len(calls) == 2:  # check 1's last instance
            sols[-1] = dataclasses.replace(sols[-1], genuine_p_false=math.nextafter(sols[-1].genuine_p_false, 1.0))
        return sols

    monkeypatch.setattr(verify, "_optimal_attacks", last_one_off)
    report = run_verification(seed=0, options=VerifyOptions(instances=2, channel_instances=1))
    by_name = {c.name: c for c in report.checks}
    assert calls[:2] == [len(VerifyOptions().lambdas)] * 2
    assert by_name["closed_form_vs_oracle"].passed
    assert not by_name["false_alarm_equality"].passed
    assert by_name["false_alarm_equality"].detail == "genuine false-alarm rate deviated from the counterfactual one"
    assert not report.ok


# one injected fault per check, at the levels each check is known to catch;
# instances=2 and channel_instances=1 pass every check at seed 0 unfaulted
FAULT_OPTIONS = VerifyOptions(instances=2, channel_instances=1)


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_check_1_catches_a_closed_form_solved_at_a_price_one_percent_off(monkeypatch):
    """Check 1 compares the closed form at each price with the oracle's
    minimizer within an absolute 1e-5 on the state, so it catches a price
    error only while the distortion it causes is that large.  Measured on
    seed 0 with 20 instances (not asserted here): this fault moves the state
    by 6.2e-3 at the default prices and by 2.9e-7 at 1e4, where the check
    passes it; an oracle that returns rho1 unchanged is caught at 1e4
    (2.9e-5) and 1e5 (2.9e-6) but passes from 1e6 up (2.9e-7), since
    rho1' - rho1 shrinks as 1/lam."""
    inner = verify._optimal_attacks

    def off(pair, pi1, lams):
        return inner(pair, pi1, [1.01 * lam for lam in lams])

    monkeypatch.setattr(verify, "_optimal_attacks", off)
    checks = _by_name(run_verification(seed=0, options=FAULT_OPTIONS))
    assert not checks["closed_form_vs_oracle"].passed
    assert checks["closed_form_vs_oracle"].stats["max_state_residual"] > verify.ORACLE_STATE_TOL
    assert checks["false_alarm_equality"].passed


def test_check_1_catches_a_closed_form_state_assembled_one_percent_mixed(monkeypatch):
    """The oracle assembles and checks its own states, so a fault in the
    closed form's state assembly moves only the closed-form side: its
    states become 0.99 state + 0.01 maximally mixed.  Measured on seeds
    0-2 with 20 instances (not asserted here): the state residual is
    6.5e-3 to 7.4e-3."""
    inner = adversary._attack_stack

    def mixed(view, lams):
        att = inner(view, lams)
        d = att.matrices.shape[-1]
        return att._replace(matrices=0.99 * att.matrices + 0.01 * np.eye(d) / d)

    monkeypatch.setattr(adversary, "_attack_stack", mixed)
    checks = _by_name(run_verification(seed=0, options=FAULT_OPTIONS))
    assert not checks["closed_form_vs_oracle"].passed
    assert checks["closed_form_vs_oracle"].stats["max_state_residual"] > verify.ORACLE_STATE_TOL


def test_check_3_catches_a_channel_realized_toward_a_target_one_percent_off(monkeypatch):
    # the channel is a valid one (complete), but it maps onto 0.99 target
    # + 0.01 maximally mixed in place of the target
    inner = verify.realize_channel

    def off_target(src, tgt):
        d = tgt.matrix.shape[0]
        return inner(src, DensityOperator(0.99 * tgt.matrix + 0.01 * np.eye(d) / d))

    monkeypatch.setattr(verify, "realize_channel", off_target)
    report = run_verification(seed=0, options=FAULT_OPTIONS)
    check = _by_name(report)["channel_realization"]
    assert not check.passed
    assert check.stats["max_completeness_residual"] <= verify.CHANNEL_TOL
    assert check.stats["max_action_deviation"] > verify.CHANNEL_TOL
    assert [c.name for c in report.checks if not c.passed] == ["channel_realization"]


def test_check_4_catches_a_genuine_false_alarm_rate_off_by_1e_12_relative(monkeypatch):
    inner = verify._optimal_attacks

    def off(pair, pi1, lams):
        return [dataclasses.replace(s, genuine_p_false=s.genuine_p_false * (1 + 1e-12)) for s in inner(pair, pi1, lams)]

    monkeypatch.setattr(verify, "_optimal_attacks", off)
    report = run_verification(seed=0, options=FAULT_OPTIONS)
    assert [c.name for c in report.checks if not c.passed] == ["false_alarm_equality"]


@pytest.mark.parametrize(
    "options, field",
    [
        (dict(lambdas=()), "lambdas"),
        (dict(lambdas=[]), "lambdas"),
        (dict(max_dim=1), "max_dim"),
        (dict(instances=-3), "instances"),
        (dict(channel_instances=-1), "channel_instances"),
        # taken as given before the verify block's rules ran here: "no" ran the
        # commuting-only battery, 2.5 and True ran, 1.5 failed with a TypeError
        # inside run_verification
        (dict(commuting_only="no"), "commuting_only"),
        (dict(max_dim=2.5), "max_dim"),
        (dict(instances=True), "instances"),
        (dict(instances=1.5), "instances"),
        (dict(lambdas=(0.0,)), r"lambdas\[0\]"),
        (dict(lambdas=1.0), "lambdas"),
    ],
)
def test_options_built_in_python_name_the_refused_field(options, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        VerifyOptions(**options)


def test_options_take_numpy_integer_counts_as_ints():
    options = VerifyOptions(instances=np.int64(1), max_dim=np.int64(3), lambdas=[1.0], channel_instances=np.int64(1))
    assert options == VerifyOptions(instances=1, max_dim=3, lambdas=(1.0,), channel_instances=1)
    assert {type(options.instances), type(options.max_dim), type(options.channel_instances)} == {int}
    assert json.loads(json_text(run_verification(0, options).to_dict()))["options"]["instances"] == 1


def test_non_convergences_are_counted_and_fail_check_1(monkeypatch):
    inner = verify._oracle_attacks

    def stalled(pair, pi1, lams):
        return [OracleConvergenceError("stalled", state, math.nan) for state in inner(pair, pi1, lams)]

    monkeypatch.setattr(verify, "_oracle_attacks", stalled)
    report = run_verification(seed=0, options=VerifyOptions(instances=2, max_dim=3, lambdas=(1.0, 2.0), channel_instances=1))
    check = report.checks[0]
    assert (check.name, check.passed, check.stats["non_convergences"]) == ("closed_form_vs_oracle", False, 4)
    assert check.detail.endswith(", 4 non-convergences")
    # the best states are the converged ones, so the count alone fails the check
    assert check.stats["max_state_residual"] <= verify.ORACLE_STATE_TOL


def test_out_of_assumption_shortfalls_are_reported_not_failed(monkeypatch):
    inner = verify._optimal_attacks

    def undetected(pair, pi1, lams):
        return [dataclasses.replace(s, genuine_p_detect=0.0) for s in inner(pair, pi1, lams)]

    monkeypatch.setattr(verify, "_optimal_attacks", undetected)
    report = run_verification(seed=0, options=VerifyOptions(instances=2, max_dim=3, lambdas=(0.5,), channel_instances=1))
    envelope = next(c for c in report.checks if c.name == "detection_rate_envelope")
    # instance 0 commutes, so its shortfall is asserted; instance 1 does not, and at
    # lam = 0.5 < 2 its shortfall is only reported
    assert (envelope.stats["lower_asserted_cases"], envelope.stats["lower_violations"]) == (1, 1)
    (short,) = envelope.stats["out_of_assumption_shortfalls"]
    assert short["lam"] == 0.5 and short["shortfall"] > 0.0 and isinstance(short["gap_condition"], bool)
    assert "1 out-of-assumption shortfalls reported, not failed" in envelope.detail


def test_commuting_only_mode():
    opts = VerifyOptions(commuting_only=True, **SMALL)
    report = run_verification(seed=1, options=opts)
    assert report.ok
    envelope = next(c for c in report.checks if c.name == "detection_rate_envelope")
    # every commuting case carries the lower bound as a hard assertion
    assert envelope.stats["lower_asserted_cases"] == SMALL["instances"] * len(SMALL["lambdas"])
    assert envelope.stats["out_of_assumption_shortfalls"] == []


@pytest.mark.parametrize("lam", [0.1, 0.3, 3e-3, 1e-3])
def test_oracle_agrees_with_the_closed_form_at_small_prices(lam):
    # at 0.1 and 0.3 one instance reaches chart points where the Hessian is
    # not positive definite, and steps that ignored that stopped 0.14 and
    # 0.29 from the closed form; at 3e-3 and 1e-3 Newton steps from a
    # shifted Hessian crawled and ran out of iterations 0.139 away
    report = run_verification(0, VerifyOptions(instances=1, lambdas=(lam,), channel_instances=1))
    assert report.ok


@pytest.mark.parametrize("lam", [1e4, 1e7])
def test_oracle_stops_at_the_objectives_rounding_level_at_large_prices(lam):
    # the chart value's terms are of size lam max|ln r| and round at that
    # scale; a decrement stop fixed at 2e-14 was met only by chance there,
    # and one instance at each price spent all 5000 accepted steps on moves
    # that change nothing in float, to end as a non-convergence
    report = run_verification(0, VerifyOptions(instances=11, channel_instances=1, lambdas=(lam,)))
    assert report.ok


def _perturbation_reference(seed):
    """The perturbation check's figures, pair by pair through the public functions."""
    rng = np.random.default_rng(seed + 4)
    worst_res, worst_ratio = 0.0, float("inf")
    for _ in range(10):
        u = haar_unitary(rng, 4)
        rho1 = DensityOperator(_hermitian((u * np.array([0.4, 0.3, 0.2, 0.1])) @ u.conj().T))
        pair = HypothesisPair(random_density(rng, 4, 1e-3), rho1, 0.5, 0.5)
        pi1 = helstrom_measurement(pair).pi1
        rep10, rep100 = (perturbation_estimate(pair, pi1, lam) for lam in (10.0, 100.0))
        worst_res = max(worst_res, rep100.max_residual)
        if rep100.max_residual > 0:
            worst_ratio = min(worst_ratio, rep10.max_residual / rep100.max_residual)
    return {"max_residual_lam100": worst_res, "min_shrink_factor": worst_ratio}


@pytest.mark.parametrize("seed", range(5))
def test_perturbation_check_equals_the_public_loop(seed):
    report = run_verification(seed=seed, options=TINY)
    check = next(c for c in report.checks if c.name == "perturbation_residual_scaling")
    assert check.passed
    assert check.stats == _perturbation_reference(seed)


def test_perturbation_check_is_one_stacked_step(monkeypatch):
    # the 10 rho1 and the 10 rho0 are each checked as one stack, the 10
    # pairs go through one Helstrom step and their 10 x 2 exponents through
    # one decomposition; no state is decomposed alone
    helstrom = []
    inner_helstrom = verify._helstrom_stack

    def counted_helstrom(*args):
        helstrom.append(args[1].shape)
        return inner_helstrom(*args)

    shapes = []
    inner_eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return inner_eigh(a, *args, **kwargs)

    monkeypatch.setattr(verify, "_helstrom_stack", counted_helstrom)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    run_verification(seed=0, options=TINY)
    assert helstrom == [(10, 4, 4)]
    assert [s for s in shapes if s[-1] == 4 and len(s) > 2] == [(10, 4, 4)] * 3 + [(10, 2, 4, 4)]
    assert shapes.count((4, 4)) == 0
