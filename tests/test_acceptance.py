"""Acceptance gate: end-to-end criteria with pinned tolerances and budgets.

Each test prints one verdict line; the conftest hook replays all lines in
the terminal summary.  Criterion 5a is expected to fail: with the detector
fixed at tau = 1, moving the signal's photon level onto the background
level k adds background weight to the accepted subspace, so the genuine
detection rate at l = k is strictly above the off-level plateau for every
admissible background, reflectivity, and price; the sweep minimum
therefore never sits at l = k.  The assertion states the advertised
property faithfully and documents the model's actual behavior by failing.
"""

import math
import time

import numpy as np

from qspoof import (
    DensityOperator,
    HypothesisPair,
    RadarParams,
    apply_channel,
    attacker_utility,
    bayes_risk,
    build_radar_pair,
    completeness_residual,
    gap_condition_sums,
    helstrom_measurement,
    optimal_attack,
    oracle_attack,
    perturbation_estimate,
    photon_sweep,
    realize_channel,
    roc_sweep,
    sample_outcomes,
)
from qspoof.adversary import BOUND_TOL
from qspoof.sampling import (
    haar_unitary,
    near_commuting_pair,
    random_commuting_pair,
    random_density,
    random_pair,
    random_projector,
)
from qspoof.verify import (
    CHANNEL_TOL,
    ORACLE_STATE_TOL,
    ORACLE_UTILITY_TOL,
    PERTURBATION_RESIDUAL_TOL,
    PERTURBATION_SHRINK_FACTOR,
)

RADAR = RadarParams(n_b=0.4, x=0.9, k=1, l=2)

POINT_RATE_TOL = 1e-12
POINT_STATE_TOL = 1e-5
POINT_BUDGET_S = 0.1
ORACLE_BUDGET_S = 60.0
ROC_BUDGET_S = 5.0
COMMUTING_RESIDUAL_TOL = 1e-12
RISK_SLACK = 1e-9


def verdict(n, ok, detail):
    return f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"


def test_criterion_01_radar_reference_point(acceptance):
    start = time.perf_counter()
    pair = build_radar_pair(RADAR, c0=0.5, c1=0.5)
    hel = helstrom_measurement(pair)
    sol = optimal_attack(pair, hel.pi1, 1.0)
    elapsed = time.perf_counter() - start

    pd_err = abs(hel.p_detect - 0.9)
    pf_err = abs(hel.p_false)
    diag_err = float(
        np.max(
            np.abs(
                np.diag(sol.rho1_prime.matrix).real
                - np.array([0.13918, 0.09279, 0.76803])
            )
        )
    )
    gpd_err = abs(sol.genuine_p_detect - 0.76803)
    lower, upper = 0.9 * math.exp(-1.0), 0.9
    in_bounds = lower - BOUND_TOL <= sol.genuine_p_detect <= upper + BOUND_TOL
    ok = (
        pd_err <= POINT_RATE_TOL
        and pf_err <= POINT_RATE_TOL
        and diag_err <= POINT_STATE_TOL
        and gpd_err <= POINT_STATE_TOL
        and in_bounds
        and elapsed < POINT_BUDGET_S
    )
    line = verdict(
        1,
        ok,
        f"radar reference point; rate errs {pd_err:.1e}/{pf_err:.1e} (tol 1e-12), "
        f"distorted errs {diag_err:.1e}/{gpd_err:.1e} (tol 1e-5), "
        f"envelope {'held' if in_bounds else 'violated'}, {elapsed:.3f}s (budget 0.1s)",
    )
    acceptance(line)
    assert ok, line


def test_criterion_02_closed_form_vs_oracle(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    lambdas = (0.5, 1.0, 2.0, 5.0)
    worst_state = 0.0
    worst_utility = 0.0
    for i in range(50):
        pair = random_pair(rng, dim=2 + i % 5)
        hel = helstrom_measurement(pair)
        lam = lambdas[i % 4]
        sol = optimal_attack(pair, hel.pi1, lam)
        sigma = oracle_attack(pair, hel.pi1, lam)
        worst_state = max(
            worst_state, float(np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix))
        )
        gap = abs(attacker_utility(sigma, pair.rho0, hel.pi1, pair, lam) - sol.utility)
        worst_utility = max(worst_utility, gap)
    elapsed = time.perf_counter() - start
    ok = (
        worst_state <= ORACLE_STATE_TOL
        and worst_utility <= ORACLE_UTILITY_TOL
        and elapsed < ORACLE_BUDGET_S
    )
    line = verdict(
        2,
        ok,
        f"closed form vs oracle on 50 instances; state residual {worst_state:.2e} "
        f"(tol 1e-5), utility gap {worst_utility:.2e} (tol 1e-6), "
        f"{elapsed:.1f}s (budget 60s)",
    )
    acceptance(line)
    assert ok, line


def test_criterion_03_detection_rate_envelope(acceptance):
    lambdas = (0.2, 0.5, 1.0, 2.0, 5.0)
    upper_violations = 0
    lower_violations = 0
    asserted = 0
    reported_only = 0
    shortfalls = []

    def inspect(pair, commuting):
        nonlocal upper_violations, lower_violations, asserted, reported_only
        hel = helstrom_measurement(pair)
        gap_ok = bool(np.all(gap_condition_sums(pair.rho1, hel.pi1) < 1.0))
        for lam in lambdas:
            sol = optimal_attack(pair, hel.pi1, lam)
            if sol.genuine_p_detect > hel.p_detect + BOUND_TOL:
                upper_violations += 1
            lower = hel.p_detect * math.exp(-1.0 / lam)
            short = lower - sol.genuine_p_detect
            if commuting or (gap_ok and lam >= 2.0):
                asserted += 1
                if short > BOUND_TOL:
                    lower_violations += 1
            else:
                reported_only += 1
                if short > BOUND_TOL:
                    shortfalls.append(short)

    rng = np.random.default_rng(31)
    for i in range(30):
        inspect(random_commuting_pair(rng, 2 + i % 5), commuting=True)
    rng = np.random.default_rng(32)
    for i in range(30):
        inspect(random_pair(rng, 2 + i % 5), commuting=False)
    rng = np.random.default_rng(33)
    for i in range(30):
        inspect(near_commuting_pair(rng, 2 + i % 5), commuting=False)

    ok = upper_violations == 0 and lower_violations == 0
    line = verdict(
        3,
        ok,
        f"rate envelope on 90 instances x 5 prices; upper violations {upper_violations}, "
        f"asserted lower violations {lower_violations}/{asserted}, "
        f"out-of-assumption shortfalls {len(shortfalls)}/{reported_only} (reported only)",
    )
    acceptance(line)
    assert ok, line


def test_criterion_04_roc_reproduction(acceptance):
    start = time.perf_counter()
    curves = roc_sweep(RADAR, lambdas=[0.5, 1.0, 2.0])
    elapsed = time.perf_counter() - start

    base = curves[0]
    dominance_ok = all(
        pt.genuine_p_detect <= ref.genuine_p_detect + BOUND_TOL
        for curve in curves[1:]
        for ref, pt in zip(base.points, curve.points)
    )
    order_ok = all(
        a.genuine_p_detect <= b.genuine_p_detect + BOUND_TOL
        for lo, hi in zip(curves[1:], curves[2:])
        for a, b in zip(lo.points, hi.points)
    )
    false_ok = all(
        pt.genuine_p_false == pt.p_false for curve in curves for pt in curve.points
    )
    sized_ok = len(curves) == 4 and all(len(c.points) == 60 for c in curves)
    ok = dominance_ok and order_ok and false_ok and sized_ok and elapsed < ROC_BUDGET_S
    line = verdict(
        4,
        ok,
        f"roc sweep 60 thresholds x prices (0.5,1,2); dominance {dominance_ok}, "
        f"price ordering {order_ok}, false-alarm equality {false_ok}, "
        f"{elapsed:.2f}s (budget 5s)",
    )
    acceptance(line)
    assert ok, line


def test_criterion_05a_sweep_minimum_at_matched_level(acceptance):
    l_values = list(range(0, 6))
    rows = photon_sweep(RADAR, l_values=l_values, lambdas=[1.0], tau=1.0)
    by_l = {row.l: row.genuine_p_detect for row in rows}
    values = [by_l[l] for l in l_values]
    arg_min = l_values[int(np.argmin(values))]
    ok = arg_min == RADAR.k
    line = verdict(
        "5a",
        ok,
        f"signal-level sweep minimum at l = k: min at l = {arg_min} (k = {RADAR.k}); "
        f"genuine rates {[round(v, 4) for v in values]}",
    )
    acceptance(line)
    assert ok, line


def test_criterion_05b_sweep_monotone_in_price(acceptance):
    l_values = list(range(0, 6))
    lambdas = [0.5, 1.0, 2.0]
    rows = photon_sweep(RADAR, l_values=l_values, lambdas=lambdas, tau=1.0)
    by_key = {(row.lam, row.l): row.genuine_p_detect for row in rows}
    ok = all(
        by_key[(hi, l)] > by_key[(lo, l)]
        for l in l_values
        for lo, hi in zip(lambdas, lambdas[1:])
    )
    line = verdict(
        "5b",
        ok,
        f"genuine rate strictly increases with the price at every swept level "
        f"({len(l_values)} levels x prices {lambdas})",
    )
    acceptance(line)
    assert ok, line


def test_criterion_06_channel_realizations(acceptance):
    rng = np.random.default_rng(66)
    worst_completeness = 0.0
    worst_action = 0.0
    invariants_ok = True
    for i in range(50):
        dim = 2 + i % 7
        rho = random_density(rng, dim, min_eigenvalue=1e-4)
        target = random_density(rng, dim)
        ch = realize_channel(rho, target)
        worst_completeness = max(worst_completeness, completeness_residual(ch))
        out = apply_channel(ch, rho)
        worst_action = max(
            worst_action, float(np.linalg.norm(out.matrix - target.matrix))
        )
        w = out.spectrum.eigenvalues
        invariants_ok = invariants_ok and (
            isinstance(out, DensityOperator)
            and abs(float(np.trace(out.matrix).real) - 1.0) <= 1e-10
            and float(w[-1]) >= -1e-10
            and np.allclose(out.matrix, out.matrix.conj().T)
        )
    ok = (
        worst_completeness <= CHANNEL_TOL
        and worst_action <= CHANNEL_TOL
        and invariants_ok
    )
    line = verdict(
        6,
        ok,
        f"50 replacement channels (d <= 8); completeness {worst_completeness:.2e}, "
        f"action {worst_action:.2e} (tol 1e-10), output invariants {invariants_ok}",
    )
    acceptance(line)
    assert ok, line


def test_criterion_07_perturbation_residuals(acceptance):
    rng = np.random.default_rng(77)
    spectrum = np.array([0.4, 0.3, 0.2, 0.1])  # eigengaps 0.1
    worst_residual = 0.0
    worst_shrink = math.inf
    for _ in range(10):
        u = haar_unitary(rng, 4)
        rho1 = DensityOperator(u @ np.diag(spectrum) @ u.conj().T)
        pair = HypothesisPair(
            rho0=random_density(rng, 4, min_eigenvalue=1e-3),
            rho1=rho1,
            c0=0.5,
            c1=0.5,
        )
        pi1 = random_projector(rng, 4, rank=int(rng.integers(1, 4)))
        r10 = perturbation_estimate(pair, pi1, 10.0)
        r100 = perturbation_estimate(pair, pi1, 100.0)
        assert r10.applicable and r100.applicable
        worst_residual = max(worst_residual, r100.max_residual)
        if r100.max_residual > 0:
            worst_shrink = min(worst_shrink, r10.max_residual / r100.max_residual)

    commuting_residual = 0.0
    rng_c = np.random.default_rng(78)
    for _ in range(10):
        pair = random_commuting_pair(rng_c, 4)
        hel = helstrom_measurement(pair)
        rep = perturbation_estimate(pair, hel.pi1, 100.0)
        commuting_residual = max(commuting_residual, rep.max_residual)

    ok = (
        worst_residual <= PERTURBATION_RESIDUAL_TOL
        and worst_shrink >= PERTURBATION_SHRINK_FACTOR
        and commuting_residual <= COMMUTING_RESIDUAL_TOL
    )
    line = verdict(
        7,
        ok,
        f"first-order spectra; residual at price 100: {worst_residual:.2e} (tol 1e-3), "
        f"shrink 10->100: {worst_shrink:.1f}x (need >= 50), "
        f"commuting residual {commuting_residual:.1e} (tol 1e-12)",
    )
    acceptance(line)
    assert ok, line


def test_criterion_08_born_rule_sampling(acceptance):
    n = 10**5
    failures = 0
    for i in range(10):
        rng = np.random.default_rng(800 + i)
        pair = random_pair(rng, dim=2 + i % 5)
        hel = helstrom_measurement(pair)
        p = hel.p_detect
        hits, total = sample_outcomes(pair.rho1, hel.pi1, n, seed=900 + i)
        margin = 3.0 * math.sqrt(p * (1.0 - p) / n)
        if abs(hits / total - p) > margin:
            failures += 1
    ok = failures == 0
    line = verdict(
        8,
        ok,
        f"sampling frequencies within 3 sigma on 10 instances at n = 1e5; "
        f"failures {failures}",
    )
    acceptance(line)
    assert ok, line


def test_criterion_09_measurement_optimality(acceptance):
    rng = np.random.default_rng(99)
    worst_margin = -math.inf
    for i in range(20):
        pair = random_pair(rng, dim=2 + i % 5)
        best = helstrom_measurement(pair).bayes_risk
        for _ in range(200):
            pi = random_projector(rng, pair.rho0.dim)
            worst_margin = max(worst_margin, best - bayes_risk(pi, pair))
    ok = worst_margin <= RISK_SLACK
    line = verdict(
        9,
        ok,
        f"risk optimality against 20 x 200 random projectors; "
        f"worst margin {worst_margin:.2e} (slack 1e-9)",
    )
    acceptance(line)
    assert ok, line
