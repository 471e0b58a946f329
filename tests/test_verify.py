"""Self-verification harness: check wiring, seeds, commuting-only mode."""

import numpy as np
import pytest

from qspoof import DensityOperator, HypothesisPair, helstrom_measurement, hermitian_part, perturbation_estimate
from qspoof import verify
from qspoof.config import VerifyOptions
from qspoof.sampling import haar_unitary, random_density
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


def test_commuting_only_mode():
    opts = VerifyOptions(commuting_only=True, **SMALL)
    report = run_verification(seed=1, options=opts)
    assert report.ok
    envelope = next(c for c in report.checks if c.name == "detection_rate_envelope")
    # every commuting case carries the lower bound as a hard assertion
    assert envelope.stats["lower_asserted_cases"] == SMALL["instances"] * len(SMALL["lambdas"])
    assert envelope.stats["out_of_assumption_shortfalls"] == []


def _perturbation_reference(seed):
    """The perturbation check's figures, pair by pair through the public functions."""
    rng = np.random.default_rng(seed + 4)
    worst_res, worst_ratio = 0.0, float("inf")
    for _ in range(10):
        u = haar_unitary(rng, 4)
        rho1 = DensityOperator(hermitian_part((u * np.array([0.4, 0.3, 0.2, 0.1])) @ u.conj().T))
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
    # the 10 rho1 are checked as one stack, the 10 pairs go through one
    # Helstrom step and their 10 x 2 exponents through one decomposition;
    # the other 4 x 4 decompositions are the 10 rho0's own, made when they
    # are drawn
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
    assert [s for s in shapes if s[-1] == 4 and len(s) > 2] == [(10, 4, 4), (10, 4, 4), (10, 2, 4, 4)]
    assert shapes.count((4, 4)) == 10
