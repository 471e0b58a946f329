"""Batch self-verification over seeded random instances.

Runs the cross-checking suites that back the library's numerical claims:
closed-form attack against the independent minimizer, detection-rate
envelope, state-replacement channel realization, genuine false-alarm
equality, and first-order perturbation residual scaling.  Checks are
assertion-class (their failure fails the run) except where a claim only
holds under assumptions, in which case out-of-assumption behavior is
reported but never failed.

The closed-form work runs through the library's stacked steps, whose
members are bit-identical to the public functions' results: checks 1
and 2 solve each instance's prices in one attack step
(``_optimal_attacks``), and check 5 builds no pair objects: it checks
its 10 rho1 as one stack (``_checked_states``, whose spectra chart
them), solves the 10 pairs in one Helstrom step, charts them in one
``_attack_view`` and decomposes their 10 x 2 exponents at once
(``_perturbation_stack``).  The oracle runs once per
(instance, price).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .adversary import (
    BoundReport,
    OracleConvergenceError,
    attacker_utility,
    gap_condition_sums,
    optimal_attack,
    oracle_attack,
    _attack_view,
    _optimal_attacks,
    _perturbation_stack,
)
from .channels import apply_channel, completeness_residual, realize_channel
from .config import VerifyOptions
from .detection import _helstrom_stack, helstrom_measurement
from .operators import _checked_states
from .sampling import haar_unitary, near_commuting_pair, random_commuting_pair, random_density, random_pair

ORACLE_STATE_TOL = 1e-5
ORACLE_UTILITY_TOL = 1e-6
CHANNEL_TOL = 1e-10
PERTURBATION_RESIDUAL_TOL = 1e-3
PERTURBATION_SHRINK_FACTOR = 50.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    assertion_class: bool
    detail: str
    stats: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Outcome of one verification run; ``ok`` when no assertion-class check failed."""

    version: str
    seed: int
    options: VerifyOptions
    wall_clock_seconds: float
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.assertion_class)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _draw_pair(rng, options: VerifyOptions):
    d = int(rng.integers(2, options.max_dim + 1))
    if options.commuting_only:
        return random_commuting_pair(rng, d)
    return random_pair(rng, d)


def run_verification(seed: int = 0, options: VerifyOptions | None = None) -> RunReport:
    """Execute all verification suites with one master seed."""
    options = options or VerifyOptions()
    start = time.perf_counter()
    checks = []

    # 1. closed form against the independent minimizer
    rng = np.random.default_rng(seed)
    worst_state = 0.0
    worst_gap = 0.0
    failures = 0
    for _ in range(options.instances):
        pair = _draw_pair(rng, options)
        hel = helstrom_measurement(pair)
        for lam, sol in zip(options.lambdas, _optimal_attacks(pair, hel.pi1, options.lambdas)):
            try:
                est = oracle_attack(pair, hel.pi1, lam)
            except OracleConvergenceError as exc:
                est = exc.best_state
                failures += 1
            err = float(np.linalg.norm(sol.rho1_prime.matrix - est.matrix))
            gap = abs(attacker_utility(est, pair.rho0, hel.pi1, pair, lam) - sol.utility)
            worst_state = max(worst_state, err)
            worst_gap = max(worst_gap, gap)
    ok = failures == 0 and worst_state <= ORACLE_STATE_TOL and worst_gap <= ORACLE_UTILITY_TOL
    checks.append(
        CheckResult(
            name="closed_form_vs_oracle",
            passed=ok,
            assertion_class=True,
            detail=(
                f"{options.instances} instances x {len(options.lambdas)} prices: "
                f"worst state residual {worst_state:.3e} (tol {ORACLE_STATE_TOL:.0e}), "
                f"worst utility gap {worst_gap:.3e} (tol {ORACLE_UTILITY_TOL:.0e}), "
                f"{failures} non-convergences"
            ),
            stats={
                "max_state_residual": worst_state,
                "max_utility_gap": worst_gap,
                "non_convergences": failures,
            },
        )
    )

    # 2. detection-rate envelope: upper bound unconditional; lower bound asserted
    #    for commuting pairs always, and for lam >= 2 under the gap condition
    rng = np.random.default_rng(seed + 1)
    upper_viol = 0
    lower_asserted = 0
    lower_viol = 0
    informational = []
    for idx in range(options.instances):
        if options.commuting_only:
            pair = random_commuting_pair(rng, int(rng.integers(2, options.max_dim + 1)))
            commuting = True
        else:
            commuting = idx % 2 == 0
            d = int(rng.integers(2, options.max_dim + 1))
            pair = random_commuting_pair(rng, d) if commuting else near_commuting_pair(rng, d)
        hel = helstrom_measurement(pair)
        gap_ok = bool(np.all(gap_condition_sums(pair.rho1, hel.pi1) < 1.0))
        for lam, sol in zip(options.lambdas, _optimal_attacks(pair, hel.pi1, options.lambdas)):
            rep = BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, lam)
            upper_viol += not rep.upper_satisfied
            if commuting or (gap_ok and lam >= 2.0):
                lower_asserted += 1
                lower_viol += not rep.lower_satisfied
            elif not rep.lower_satisfied:
                shortfall = rep.lower - rep.genuine_p_detect
                informational.append({"lam": lam, "shortfall": shortfall, "gap_condition": gap_ok})
    ok = upper_viol == 0 and lower_viol == 0
    checks.append(
        CheckResult(
            name="detection_rate_envelope",
            passed=ok,
            assertion_class=True,
            detail=(
                f"upper bound violations {upper_viol}, lower bound violations {lower_viol} "
                f"on {lower_asserted} asserted cases; "
                f"{len(informational)} out-of-assumption shortfalls reported, not failed"
            ),
            stats={
                "upper_violations": upper_viol,
                "lower_violations": lower_viol,
                "lower_asserted_cases": lower_asserted,
                "out_of_assumption_shortfalls": informational,
            },
        )
    )

    # 3. state-replacement channels realize the distortion

    rng = np.random.default_rng(seed + 2)
    worst_comp = 0.0
    worst_act = 0.0
    for _ in range(options.channel_instances):
        pair = _draw_pair(rng, options)
        hel = helstrom_measurement(pair)
        sol = optimal_attack(pair, hel.pi1, float(options.lambdas[0]))
        for src, tgt in ((pair.rho1, sol.rho1_prime), (pair.rho0, sol.rho0_prime)):
            ch = realize_channel(src, tgt)
            worst_comp = max(worst_comp, completeness_residual(ch))
            out = apply_channel(ch, src)
            worst_act = max(worst_act, float(np.max(np.abs(out.matrix - tgt.matrix))))
    ok = worst_comp <= CHANNEL_TOL and worst_act <= CHANNEL_TOL
    checks.append(
        CheckResult(
            name="channel_realization",
            passed=ok,
            assertion_class=True,
            detail=(
                f"{options.channel_instances} pairs: worst completeness residual {worst_comp:.3e}, "
                f"worst action deviation {worst_act:.3e} (tol {CHANNEL_TOL:.0e})"
            ),
            stats={"max_completeness_residual": worst_comp, "max_action_deviation": worst_act},
        )
    )

    # 4. the undistorted null hypothesis: genuine false-alarm rate is exact
    rng = np.random.default_rng(seed + 3)
    exact = True
    for _ in range(min(options.instances, 20)):
        pair = _draw_pair(rng, options)
        hel = helstrom_measurement(pair)
        sol = optimal_attack(pair, hel.pi1, float(options.lambdas[0]))
        if sol.genuine_p_false != hel.p_false:
            exact = False
    checks.append(
        CheckResult(
            name="false_alarm_equality",
            passed=exact,
            assertion_class=True,
            detail="genuine false-alarm rate equals the counterfactual one exactly"
            if exact
            else "genuine false-alarm rate deviated from the counterfactual one",
            stats={},
        )
    )

    # 5. perturbation residual scaling on well-gapped simple spectra
    #    (the 10 rho1 checked as one stack, the 10 pairs in one Helstrom step,
    #    their 10 x 2 exponents in one decomposition; each figure is the one
    #    perturbation_estimate reports)
    rng = np.random.default_rng(seed + 4)
    rho0s, rho1s = [], []
    for _ in range(10):
        u = haar_unitary(rng, 4)
        rho1s.append((u * np.array([0.4, 0.3, 0.2, 0.1])) @ u.conj().T)
        rho0s.append(random_density(rng, 4, 1e-3).matrix)
    rho1, w, x = _checked_states(np.stack(rho1s))
    hel = _helstrom_stack(np.stack(rho0s), rho1, np.full(10, 0.5), np.full(10, 0.5))
    view = _attack_view(w, x, hel.projectors)
    residuals = np.abs(_perturbation_stack(view.r, view.pi_s, np.array([10.0, 100.0])).residual).max(axis=-1)
    res10, res100 = residuals[:, 0], residuals[:, 1]
    worst_res = float(res100.max())
    shrinks = res10[res100 > 0] / res100[res100 > 0]
    worst_ratio = float(shrinks.min()) if shrinks.size else float("inf")
    ok = worst_res <= PERTURBATION_RESIDUAL_TOL and worst_ratio >= PERTURBATION_SHRINK_FACTOR
    checks.append(
        CheckResult(
            name="perturbation_residual_scaling",
            passed=ok,
            assertion_class=True,
            detail=(
                f"max residual at price 100: {worst_res:.3e} (tol {PERTURBATION_RESIDUAL_TOL:.0e}); "
                f"min shrink factor 10->100: {worst_ratio:.1f} (needs >= {PERTURBATION_SHRINK_FACTOR:.0f})"
            ),
            stats={"max_residual_lam100": worst_res, "min_shrink_factor": worst_ratio},
        )
    )

    wall = time.perf_counter() - start
    return RunReport(
        version=__version__,
        seed=seed,
        options=options,
        wall_clock_seconds=wall,
        checks=checks,
    )
