"""The benchmark's workloads: seeded inputs, the ops they run, and checks.

Every input is drawn here from ``numpy.random.default_rng`` seeded by the
benchmark's ``--seed``; nothing comes from ``qspoof.sampling``, so a
library change cannot change a workload.  The program receives only the
generated matrices, scenario files and argv.

A workload yields *groups*: a list of steps run back to back in the timed
loop, of which some are *ops* (the unit latencies are reported for).
Steps share a fresh ``ctx`` dict per run of the group, so a traced run can
replay the same group.  ``check`` runs after the group, outside the timed
region, and returns one failure message (or None) per op plus counters.

Checks use invariants, never golden bytes:
- every output is finite;
- ``P_D e^{-1/lam} - TOL <= genuine_p_detect <= P_D + TOL``; the lower
  bound is asserted where the library asserts it (commuting pairs always,
  noncommuting pairs for lam >= 2 under the spectral gap condition);
- ``genuine_p_false == p_false`` exactly;
- ``genuine_p_detect - TOL <= utility <= P_D + TOL`` (relative entropy
  is nonnegative, and rho1 itself is a feasible distortion);
- ``rho1'`` is Hermitian with unit trace and PSD.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import warnings

import numpy as np

# Slack on the rate envelope and the utility bound (the library's BOUND_TOL).
TOL = 1e-9
# Allowed trace deviation and negative eigenvalue of a delivered state.
STATE_TOL = 1e-9
# The paper's radar reference point: genuine P_D at lam = 1 (acceptance criterion 1).
README_RADAR = {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5}
REFERENCE_GENUINE_PD = 0.76803
REFERENCE_TOL = 1e-5
# Dimension of the dense_attack pairs and of the dense known-defect probe.
DENSE_DIM = 128

# Bare LAPACK entry points, captured before any tracer rebinds them.
_EIGVALSH = np.linalg.eigvalsh


class Group:
    """Steps run back to back; ``is_op`` marks the steps that are ops."""

    __slots__ = ("steps", "is_op", "check")

    def __init__(self, steps, is_op, check):
        self.steps = steps
        self.is_op = is_op
        self.check = check

    @property
    def ops(self) -> int:
        return sum(self.is_op)


def _log_uniform(rng, lo: float, hi: float, n: int | None = None):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def state_problem(m: np.ndarray) -> str | None:
    """Why ``m`` is not a density operator within STATE_TOL, or None."""
    if not np.all(np.isfinite(m)):
        return "rho1' has non-finite entries"
    if float(np.max(np.abs(m - m.conj().T))) > STATE_TOL:
        return "rho1' is not Hermitian"
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > STATE_TOL:
        return f"rho1' trace {tr!r} is not 1"
    wmin = float(_EIGVALSH((m + m.conj().T) / 2)[0])
    if wmin < -STATE_TOL:
        return f"rho1' has eigenvalue {wmin:.3e} < 0"
    return None


def solution_problem(p_detect, p_false, lam, gpd, gpf, utility, rho1_prime, assert_lower) -> str | None:
    """Check one interception against the invariants; None when it holds."""
    if not _finite(p_detect, p_false, lam, gpd, gpf, utility):
        return f"non-finite output at lam={lam!r}"
    if gpf != p_false:
        return f"genuine_p_false {gpf!r} != p_false {p_false!r}"
    if gpd > p_detect + TOL:
        return f"genuine_p_detect {gpd!r} above P_D {p_detect!r}"
    if assert_lower and gpd < p_detect * math.exp(-1.0 / lam) - TOL:
        return f"genuine_p_detect {gpd!r} below P_D e^(-1/lam) at lam={lam!r}"
    if utility > p_detect + TOL:
        return f"utility {utility!r} above P_D {p_detect!r} at lam={lam!r}"
    if utility < gpd - TOL:
        return f"utility {utility!r} below genuine_p_detect {gpd!r} (negative relative entropy) at lam={lam!r}"
    return state_problem(rho1_prime)


def _matrix(literal) -> np.ndarray:
    return np.array(
        [[complex(*e) if isinstance(e, list) else complex(e) for e in row] for row in literal],
        dtype=np.complex128,
    )


# ---------------------------------------------------------------------------
# radar_cli: in-process CLI calls on small radar scenarios


class RadarCli:
    """``qspoof.cli.main`` calls on radar scenarios with d <= 9.

    One group is a fixed mix of 20 calls drawn fresh from the seed: the
    acceptance reference point, 5 ``detect``, 6 ``attack``, 4
    ``photon-sweep`` and 4 ``roc`` (default 60-point threshold grid).
    The fixed mix keeps the median inside the detect/attack calls and the
    90th percentile inside the roc calls, so neither sits on a boundary
    between call kinds.  Prices audited through the attack utility stay
    in [1e-2, 1e5]; sweeps reach 1e15; threshold overrides reach 0.01.
    The seed code fails outside that price range; ``run_probes`` keeps
    those inputs in every run.
    """

    name = "radar_cli"
    floor_dim = 9
    PATTERN = "RDACDAPDACDAPDACAPCP"

    def __init__(self, qs, seed: int, workdir: str):
        self.cli = qs.cli
        self.rng = np.random.default_rng([seed, 1])
        self.workdir = workdir

    @staticmethod
    def _scenario(r) -> dict:
        tau0 = float(_log_uniform(r, 0.1, 10.0))
        return {
            "n_b": float(r.uniform(0.02, 0.98)),
            "x": float(r.uniform(0.02, 0.98)),
            "k": int(r.integers(0, 9)),
            "l": int(r.integers(0, 9)),
            "c0": 1.0 / (1.0 + tau0),
            "c1": tau0 / (1.0 + tau0),
        }

    def _call(self, j: int, kind: str) -> dict:
        r = self.rng
        cfg_path = os.path.join(self.workdir, f"radar_{j}.json")
        out_path = os.path.join(self.workdir, f"radar_{j}.out")
        cfg: dict = {"radar": self._scenario(r)}
        call = {"kind": kind, "out": out_path, "tau": None, "lambdas": [], "format": "json"}
        if kind == "R":
            cfg = {"radar": dict(README_RADAR)}
            argv = ["attack", "--lambda", "1.0"]
            call["lambdas"] = [1.0]
        elif kind == "D":
            argv = ["detect"]
            if r.random() < 0.5:
                call["format"] = "csv"
                argv += ["--format", "csv"]
            if r.random() < 0.6:
                call["tau"] = float(_log_uniform(r, 0.01, 100.0))
                argv += ["--tau", repr(call["tau"])]
        elif kind == "A":
            argv = ["attack"]
            call["lambdas"] = [float(v) for v in _log_uniform(r, 1e-2, 1e5, 3)]
            for lam in call["lambdas"]:
                argv += ["--lambda", repr(lam)]
            if r.random() < 0.5:
                call["tau"] = float(_log_uniform(r, 0.01, 100.0))
                argv += ["--tau", repr(call["tau"])]
        elif kind == "P":
            call["lambdas"] = [float(v) for v in _log_uniform(r, 1e-2, 1e15, 2)]
            call["tau"] = float(_log_uniform(r, 0.01, 100.0))
            call["format"] = "csv"
            cfg["attack"] = {"lambdas": call["lambdas"]}
            cfg["sweep"] = {"tau": call["tau"], "l_values": sorted(int(v) for v in r.choice(9, 6, replace=False))}
            argv = ["photon-sweep"]
        else:  # "C": roc over the default threshold grid
            call["lambdas"] = [float(v) for v in _log_uniform(r, 1e-2, 1e15, 3)]
            call["format"] = "csv"
            cfg["attack"] = {"lambdas": call["lambdas"]}
            argv = ["roc"]
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        call["cfg"] = cfg
        call["argv"] = [argv[0], "--config", cfg_path, "--out", out_path] + argv[1:]
        return call

    def setup_input(self, seed: int) -> str:
        """A scenario file drawn like the timed ones, for the set-up child."""
        path = os.path.join(self.workdir, "setup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"radar": self._scenario(np.random.default_rng([seed, 4]))}, fh)
        return path

    def next_group(self) -> Group:
        calls = [self._call(j, kind) for j, kind in enumerate(self.PATTERN)]
        cli = self.cli

        def step(call):
            return lambda ctx: cli.main(call["argv"])

        return Group(
            [step(c) for c in calls],
            [True] * len(calls),
            lambda results, errors, ctx: self.check(calls, results, errors),
        )

    def check(self, calls, results, errors):
        failures, out_bytes = [], 0
        for call, rc, err in zip(calls, results, errors):
            if err is not None:
                failures.append(f"{call['kind']} raised {err!r}")
                continue
            if rc != 0:
                failures.append(f"{call['argv'][0]} exited {rc}")
                continue
            with open(call["out"], "r", encoding="utf-8") as fh:
                text = fh.read()
            out_bytes += len(text.encode("utf-8"))
            failures.append(check_radar_output(call, text))
        return failures, {"bytes_out": out_bytes}


def _threshold(call) -> float:
    radar = call["cfg"]["radar"]
    return call["tau"] if call["tau"] is not None else radar["c1"] / radar["c0"]


def check_radar_output(call: dict, text: str) -> str | None:
    """Invariants of one CLI output; None when they hold."""
    try:
        return _radar_problem(call, text)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {call['kind']} output: {exc!r}"


def _radar_problem(call: dict, text: str) -> str | None:
    if call["format"] == "json":
        obj = json.loads(text)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        header, rows = rows[0], rows[1:]
    kind = call["kind"]
    if kind == "D":
        tau = _threshold(call)
        if call["format"] == "json":
            rank, pd, pf, risk, tau_out = obj["rank"], obj["p_detect"], obj["p_false"], obj["bayes_risk"], obj["tau"]
            spectrum = obj["spectrum"]
            proj_trace = float(np.trace(_matrix(obj["projector"])).real)
            if not _finite(*spectrum) or abs(proj_trace - rank) > STATE_TOL:
                return "detect spectrum or projector malformed"
        else:
            if header != ["tau", "rank", "p_detect", "p_false", "bayes_risk"] or len(rows) != 1:
                return "detect csv has the wrong shape"
            tau_out, rank, pd, pf, risk = (float(v) for v in rows[0])
        if not _finite(pd, pf, risk, tau_out) or not (0.0 <= pf <= 1.0 and 0.0 <= pd <= 1.0):
            return f"detect rates out of range: {pd!r}, {pf!r}"
        if abs(tau_out - tau) > 1e-9 * max(1.0, tau):
            return f"detect threshold {tau_out!r} != {tau!r}"
        return None
    if kind in ("A", "R"):
        sols = obj["solutions"]
        if [s["lambda"] for s in sols] != call["lambdas"]:
            return "attack solutions do not follow the requested prices"
        pd, pf = obj["p_detect"], obj["p_false"]
        for s in sols:
            problem = solution_problem(
                pd, pf, s["lambda"], s["genuine_p_detect"], s["genuine_p_false"], s["utility"],
                _matrix(s["rho1_prime"]), assert_lower=True,
            )
            if problem is None and not (_finite(s["z1"]) and s["z1"] > 0):
                problem = f"z1 {s['z1']!r} is not positive"
            if problem:
                return problem
        if kind == "R":
            gpd = sols[0]["genuine_p_detect"]
            if abs(pd - 0.9) > 1e-12 or abs(pf) > 1e-12 or abs(gpd - REFERENCE_GENUINE_PD) > REFERENCE_TOL:
                return f"reference point moved: P_D {pd!r}, P_F {pf!r}, genuine {gpd!r}"
        return None
    if kind == "P":
        if header != ["l", "mean_photon", "lambda", "p_detect", "genuine_p_detect"]:
            return "photon-sweep csv header changed"
        if len(rows) != len(call["lambdas"]) * len(call["cfg"]["sweep"]["l_values"]):
            return f"photon-sweep has {len(rows)} rows"
        for row in rows:
            _, nbar, lam, pd, gpd = (float(v) for v in row)
            if not _finite(nbar, lam, pd, gpd):
                return "photon-sweep has non-finite cells"
            if gpd > pd + TOL or gpd < pd * math.exp(-1.0 / lam) - TOL:
                return f"photon-sweep genuine rate {gpd!r} outside its envelope at lam={lam!r}"
        return None
    # roc
    if header != ["lambda", "tau", "p_false", "p_detect", "genuine_p_false", "genuine_p_detect"]:
        return "roc csv header changed"
    n_curves = 1 + len(set(call["lambdas"]))
    if len(rows) % n_curves or len(rows) // n_curves != 60:
        return f"roc has {len(rows)} rows for {n_curves} curves"
    for i in range(0, len(rows), 60):
        curve = rows[i : i + 60]
        taus = [float(r[1]) for r in curve]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            return "roc thresholds not increasing"
        for lam_cell, _, pf, pd, gpf, gpd in curve:
            if gpf != pf:
                return f"roc genuine_p_false {gpf} != p_false {pf}"
            vals = [float(v) for v in (pf, pd, gpd)]
            if not _finite(*vals):
                return "roc has non-finite cells"
            pd_f, gpd_f = vals[1], vals[2]
            if lam_cell == "":
                if gpd != pd:
                    return "undistorted roc curve has genuine != counterfactual"
                continue
            lam = float(lam_cell)
            if gpd_f > pd_f + TOL or gpd_f < pd_f * math.exp(-1.0 / lam) - TOL:
                return f"roc genuine rate {gpd_f!r} outside its envelope at lam={lam!r}"
    return None


# ---------------------------------------------------------------------------
# dense_attack: library calls on generic full-rank pairs


def wishart_state(rng, d: int) -> np.ndarray:
    """Complex Wishart matrix normalized to unit trace (full rank almost surely)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    w = w / np.trace(w).real
    return (w + w.conj().T) / 2


class DenseAttack:
    """Helstrom measurement plus ``optimal_attack`` at five prices, d = 128.

    A pool of pairs is drawn once; groups cycle through it, so memory does
    not grow with the run.  A group builds the ``HypothesisPair`` from the
    raw matrices, runs ``helstrom_measurement`` (timed, not an op), then
    five ``optimal_attack`` ops at prices log-spaced over [1e-6, 1e5]
    with a seeded jitter of a quarter decade.  The seed code fails the
    utility audit above about 1e7 at this size; ``run_probes`` keeps
    lam = 1e9 and 1e15 in every run.
    """

    name = "dense_attack"
    POOL = 12
    EXPONENTS = np.linspace(-6.0, 5.0, 5)

    def __init__(self, qs, seed: int, workdir: str, dim: int = DENSE_DIM):
        self.qs = qs
        self.workdir = workdir
        self.floor_dim = dim
        rng = np.random.default_rng([seed, 2])
        self.pool = []
        for _ in range(self.POOL):
            tau = float(_log_uniform(rng, 0.5, 2.0))
            lams = [float(v) for v in 10.0 ** (self.EXPONENTS + rng.uniform(-0.25, 0.25, 5))]
            self.pool.append((wishart_state(rng, dim), wishart_state(rng, dim), tau, lams))
        self._gap_ok: dict[int, bool] = {}
        self.next = 0

    def next_group(self) -> Group:
        k = self.next % self.POOL
        self.next += 1
        m0, m1, tau, lams = self.pool[k]
        ops, det, adv = self.qs.operators, self.qs.detection, self.qs.adversary

        def build(ctx):
            ctx["pair"] = det.HypothesisPair(
                ops.DensityOperator(m0), ops.DensityOperator(m1), 1.0 / (1.0 + tau), tau / (1.0 + tau)
            )

        def helstrom(ctx):
            ctx["hel"] = det.helstrom_measurement(ctx["pair"])

        def attack(lam):
            return lambda ctx: adv.optimal_attack(ctx["pair"], ctx["hel"].pi1, lam)

        steps = [build, helstrom] + [attack(lam) for lam in lams]
        return Group(
            steps,
            [False, False] + [True] * len(lams),
            lambda results, errors, ctx: self.check(k, lams, results[2:], errors, ctx),
        )

    def check(self, k, lams, sols, errors, ctx):
        if errors[0] is not None or errors[1] is not None:
            problem = f"pair set-up raised {errors[0] or errors[1]!r}"
            return [problem] * len(lams), {}
        pair, hel = ctx["pair"], ctx["hel"]
        if k not in self._gap_ok:
            sums = self.qs.adversary.gap_condition_sums(pair.rho1, hel.pi1)
            self._gap_ok[k] = bool(np.all(sums < 1.0))
        failures = []
        for lam, sol, err in zip(lams, sols, errors[2:]):
            if err is not None:
                failures.append(f"optimal_attack raised {err!r}")
                continue
            problem = solution_problem(
                hel.p_detect, hel.p_false, lam, sol.genuine_p_detect, sol.genuine_p_false, sol.utility,
                np.asarray(sol.rho1_prime.matrix), assert_lower=self._gap_ok[k] and lam >= 2.0,
            )
            if problem is None and not (_finite(sol.z1) and sol.z1 > 0):
                problem = f"z1 {sol.z1!r} is not positive"
            failures.append(problem)
        return failures, {}

    def setup_input(self, seed: int) -> str:
        """The first pool pair as raw matrices, for the set-up child."""
        m0, m1, tau, _ = self.pool[0]
        path = os.path.join(self.workdir, "setup.npz")
        np.savez(path, rho0=m0, rho1=m1, tau=tau)
        return path


# ---------------------------------------------------------------------------
# verify_battery: the self-verification battery


class VerifyBattery:
    """``run_verification(seed + i)`` with one instance per suite.

    The default dimension range (2..6) and prices are kept; the small
    instance count gives a few hundred batteries per run, enough samples
    for the 90th percentile.  A report with ``ok == False`` is a failed op.
    """

    name = "verify_battery"
    floor_dim = 6
    INSTANCES = 1

    def __init__(self, qs, seed: int, workdir: str):
        self.verify = qs.verify
        self.options = qs.config.VerifyOptions(instances=self.INSTANCES, channel_instances=self.INSTANCES)
        self.base = seed * 1_000_003
        self.next = 0

    def setup_input(self, seed: int) -> str:
        return str(self.INSTANCES)

    def next_group(self) -> Group:
        battery_seed = self.base + self.next
        self.next += 1
        verify, options = self.verify, self.options
        return Group(
            [lambda ctx: verify.run_verification(battery_seed, options)],
            [True],
            lambda results, errors, ctx: self.check(results[0], errors[0]),
        )

    @staticmethod
    def check(report, err):
        if err is not None:
            return [f"run_verification raised {err!r}"], {}
        stats = report.checks[0].stats
        failed = [c.name for c in report.checks if c.assertion_class and not c.passed]
        problem = None if report.ok else f"verification failed: {', '.join(failed)}"
        if problem is None and not _finite(report.wall_clock_seconds):
            problem = "non-finite wall clock in report"
        return [problem], {"oracle_nonconverged": int(stats["non_convergences"])}


WORKLOADS = {"radar_cli": RadarCli, "dense_attack": DenseAttack, "verify_battery": VerifyBattery}


# ---------------------------------------------------------------------------
# known-defect probes


def run_probes(qs, seed: int, workdir: str) -> list[tuple[str, str | None]]:
    """Inputs on which the seed code is known to fail, run outside the timed loop.

    - threshold 0.01 with lam <= 1e-3 on the reference radar scenario:
      Z1 underflows and the CLI exits 2 with "matrix contains non-finite
      entries";
    - lam >= 1e9 on the reference radar scenario and on a d = 128 Wishart
      pair: the relative-entropy utility cancels and can exceed P_D;
    - ``detect`` at threshold 100 on the reference scenario: the reported
      Bayes risk c1 (1 - P_D) + c0 P_F exceeds min(c0, c1), the risk of
      always announcing one hypothesis, because the projector follows
      rho1 - tau rho0 while that risk is minimized by rho1 - rho0 / tau.
    Returns (probe, failure or None); a fix in the program turns failures
    into None without any change here.
    """
    cfg_path = os.path.join(workdir, "probe.json")
    out_path = os.path.join(workdir, "probe.out")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"radar": README_RADAR}, fh)

    def cli(argv):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = qs.cli.main([argv[0], "--config", cfg_path, "--out", out_path] + argv[1:])
        if rc != 0:
            return None, f"exit {rc}: {err.getvalue().strip()}"
        with open(out_path, "r", encoding="utf-8") as fh:
            return fh.read(), None

    out = []
    for name, tau, lam in (
        ("radar_tau0.01_lam1e-6", 0.01, 1e-6),
        ("radar_tau0.01_lam1e-3", 0.01, 1e-3),
        ("radar_lam1e9", None, 1e9),
        ("radar_lam1e15", None, 1e15),
    ):
        text, problem = cli(["attack", "--lambda", repr(lam)] + ([] if tau is None else ["--tau", repr(tau)]))
        if problem is None:
            call = {"kind": "A", "format": "json", "tau": tau, "lambdas": [lam], "cfg": {"radar": README_RADAR}}
            problem = check_radar_output(call, text)
        out.append((name, problem))

    text, problem = cli(["detect", "--tau", "100"])
    if problem is None:
        risk, c0, c1 = json.loads(text)["bayes_risk"], 1.0 / 101.0, 100.0 / 101.0
        if risk > min(c0, c1) + TOL:
            problem = f"bayes risk {risk!r} above min(c0, c1) = {min(c0, c1)!r}"
    out.append(("radar_detect_risk_tau100", problem))

    rng = np.random.default_rng([seed, 3])
    pair = qs.detection.HypothesisPair(
        qs.operators.DensityOperator(wishart_state(rng, DENSE_DIM)),
        qs.operators.DensityOperator(wishart_state(rng, DENSE_DIM)),
        0.5,
        0.5,
    )
    hel = qs.detection.helstrom_measurement(pair)
    for lam in (1e9, 1e12, 1e15):
        try:
            sol = qs.adversary.optimal_attack(pair, hel.pi1, lam)
            problem = solution_problem(
                hel.p_detect, hel.p_false, lam, sol.genuine_p_detect, sol.genuine_p_false, sol.utility,
                np.asarray(sol.rho1_prime.matrix), assert_lower=False,
            )
        except ValueError as exc:
            problem = f"raised {exc!r}"
        out.append((f"dense_lam1e{round(math.log10(lam))}", problem))
    return out
