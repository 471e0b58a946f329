"""qspoof benchmark: three closed-loop workloads through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload radar_cli --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 32 --trace 1

One client in one process runs a workload's ops back to back for
``--seconds`` seconds of timed wall time (at least ``MIN_OPS`` ops), then
checks every output outside the timed region.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` replays every group twice, untraced and
traced (alternating which goes first), and prints the per-module metrics
and the tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run manifest, each metric by name with its unit, and the
known-defect probes.  See ``bench/METRICS.md`` for what each metric
measures and which end-to-end metric it should move.

BLAS is pinned to one thread in this process and in the set-up children
(single-threaded baseline; the pin is recorded in the manifest).
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("radar_cli", "dense_attack", "verify_battery")
# Fewest ops in a run, so that at least 10 latency samples lie beyond the 90th percentile.
MIN_OPS = 100
# Set-up is timed as pairs of fresh interpreters spread evenly over the run
# (after one discarded warm-up pair that compiles bytecode): the workload's
# set-up child and a reference child that only imports numpy, back to back
# in alternating order.  Either child's time moves by up to 1.5x with the
# shared machine's speed from second to second; their ratio moves little.
SETUP_PAIRS = 11
REFERENCE_CHILD = ("-c", "import numpy")
# Median wall time of the reference child on the 2-vCPU reference machine
# (Xeon, 2.0 GHz, KVM); setup_s is the median ratio times this.
REFERENCE_CHILD_S = 0.18
# Timed seconds between speed-reference measurements.  Each such stretch
# is one throughput block (its ops over its wall time); the run reports
# the median block rate.
REF_INTERVAL_S = 1.0
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="PATH", help="with --trace 1, also write every span as JSON lines")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """Import qspoof from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "qspoof" / "__init__.py").is_file():
        raise SystemExit(f"error: no qspoof sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qspoof
    import qspoof.cli

    if Path(qspoof.__file__).resolve().parent != (src / "qspoof").resolve():
        raise SystemExit(f"error: imported qspoof from {qspoof.__file__}, not from {src}")
    return types.SimpleNamespace(
        cli=qspoof.cli,
        config=sys.modules["qspoof.config"],
        verify=sys.modules["qspoof.verify"],
        operators=sys.modules["qspoof.operators"],
        detection=sys.modules["qspoof.detection"],
        adversary=sys.modules["qspoof.adversary"],
    )


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, np, ops: int, groups: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "ops": ops,
        "groups": groups,
        "setup_pairs": SETUP_PAIRS,
    }


def _spawn(cmd) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_pair(name: str, setup_input: str, child_first: bool) -> tuple[float, float, dict]:
    """Spawn-to-exit wall times of one set-up child and one reference child, and the set-up phase times."""
    child = [sys.executable, str(HERE / "setup_child.py"), str(ROOT), name, setup_input]
    reference = [sys.executable, *REFERENCE_CHILD]
    if child_first:
        (wall, out), (ref, _) = _spawn(child), _spawn(reference)
    else:
        (ref, _), (wall, out) = _spawn(reference), _spawn(child)
    return wall, ref, json.loads(out.strip().splitlines()[-1])


def _call(step, ctx):
    try:
        return step(ctx), None
    except Exception as exc:  # a raising op is a failed op; the check reports it
        return None, exc


def run_group(group, tracer=None, op_base: int = 0):
    """Run one group; returns op latencies, timed wall, results, errors, ctx and warnings."""
    ctx: dict = {}
    results, errors, lat = [], [], []
    wall, runtime_warnings = 0.0, 0
    for step, is_op in zip(group.steps, group.is_op):
        if tracer is None:
            t0 = time.perf_counter()
            res, err = _call(step, ctx)
            dt = time.perf_counter() - t0
        else:
            tracer.current_op = op_base + len(lat) if is_op else -1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                res, err = _call(step, ctx)
                dt = time.perf_counter() - t0
            if is_op:
                runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            tracer.current_op = -1
        wall += dt
        results.append(res)
        errors.append(err)
        if is_op:
            lat.append(dt)
    return types.SimpleNamespace(
        lat=lat, wall=wall, results=results, errors=errors, ctx=ctx, runtime_warnings=runtime_warnings
    )


def eigh_floor_ms(np, eigh, d: int, seed: int) -> float:
    """Median time of a bare complex Hermitian eigh at dimension d."""
    rng = np.random.default_rng([seed, 5])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (g + g.conj().T) / 2
    times = []
    for _ in range(400 if d <= 16 else 30):
        t0 = time.perf_counter()
        eigh(a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class SpeedReference:
    """A fixed benchmark-side kernel, timed between groups, that tracks machine speed.

    The kernel never calls qspoof, so no program change moves it; its
    time moves only with how fast this shared machine runs at the moment.
    It mixes the resources the timed workloads use: a pure-Python dict
    loop, small complex ``eigh`` and array expressions at d = 9, small
    file round trips, and one complex ``eigh`` at d = 128.  Each part's
    time is divided by its nominal time and the parts are averaged, so
    each weighs the same; the result (1.0 at nominal speed) is the
    machine's slowness at that moment.  A
    timed-loop time is divided by the mean slowness measured just before
    and just after it.  Raw values and the slowness are printed beside
    the metrics.
    """

    # Median part times on the 2-vCPU reference machine (Xeon, 2.0 GHz, KVM)
    # while a workload runs.
    NOMINAL_S = {"python": 1.2e-3, "eigh9": 1.6e-3, "numpy9": 0.85e-3, "file": 1.4e-3, "eigh128": 5.3e-3}

    def __init__(self, np, eigh, workdir: str):
        self.np = np
        self.eigh = eigh
        rng = np.random.default_rng(20221104)

        def hermitian(d):
            g = rng.standard_normal((d, 2 * d)).view(np.complex128)
            return (g + g.conj().T) / 2

        self.small, self.large = hermitian(9), hermitian(128)
        self.path = os.path.join(workdir, "speed_reference.json")
        self.payload = json.dumps([[i * 0.1, i * 0.2] for i in range(400)])
        self.times: list = []

    def _parts(self) -> dict:
        np, small = self.np, self.small
        t = [time.perf_counter()]
        acc: dict = {}
        for i in range(5000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        t.append(time.perf_counter())
        for _ in range(40):
            self.eigh(small)
        t.append(time.perf_counter())
        for _ in range(40):
            a = small @ small
            np.trace((a + a.conj().T) / 2)
        t.append(time.perf_counter())
        for _ in range(2):
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(self.payload)
            with open(self.path, encoding="utf-8") as fh:
                json.loads(fh.read())
        t.append(time.perf_counter())
        self.eigh(self.large)
        t.append(time.perf_counter())
        return dict(zip(self.NOMINAL_S, (b - a for a, b in zip(t, t[1:]))))

    def measure(self) -> float:
        """Slowness: median over three kernel runs of the mean part time over nominal."""
        runs = []
        for _ in range(3):
            parts = self._parts()
            runs.append(statistics.fmean(parts[k] / self.NOMINAL_S[k] for k in self.NOMINAL_S))
        t = statistics.median(runs)
        self.times.append(t)
        return t

    @staticmethod
    def factor(before: float, after: float) -> float:
        return 2.0 / (before + after)


def timed_loop(args, wl, min_ops: int, tracer, speed, setup_input: str):
    """Run groups until the timed wall time reaches ``--seconds`` and ``min_ops`` ops ran.

    Untraced: each stretch of at least ``REF_INTERVAL_S`` timed seconds
    is bracketed by speed-reference measurements; its op latencies and
    its rate (a throughput block) are scaled to the nominal speed.
    Traced: every group runs untraced and traced, alternating which
    goes first, and only the traced leg's outputs are checked.
    """
    st = types.SimpleNamespace(
        lat=[], raw_lat=[], block_rates=[], raw_rates=[], setups=[], overheads=[], problems=[],
        timed=0.0, attempted=0, failed=0, groups=0,
        window={"runtime_warnings": 0, "bytes_out": 0, "oracle_nonconverged": 0},
    )
    warm = wl.next_group()  # fills caches and lazy imports; not counted
    run_group(warm)
    st.group_ops = warm.ops
    st.window_groups = -(-min_ops // warm.ops)
    pending, since = [], 0.0
    ref_before = speed.measure()

    def flush():
        nonlocal pending, since, ref_before
        ref_after = speed.measure()
        f = speed.factor(ref_before, ref_after)
        ops = sum(len(lat) for lat, _ in pending)
        wall = sum(w for _, w in pending)
        for lat, _ in pending:
            st.raw_lat.extend(lat)
            st.lat.extend(x * f for x in lat)
        if ops:
            st.raw_rates.append(ops / wall)
            st.block_rates.append(ops / (wall * f))
        pending, since, ref_before = [], 0.0, ref_after

    while st.timed < args.seconds or st.attempted < min_ops:
        if len(st.setups) < SETUP_PAIRS and st.timed >= len(st.setups) * args.seconds / SETUP_PAIRS:
            flush()
            st.setups.append(setup_pair(args.workload, setup_input, len(st.setups) % 2 == 0))
        group = wl.next_group()
        if tracer is None:
            run = run_group(group)
            wall = run.wall
            pending.append((run.lat, wall))
            since += wall
            fails, counters = group.check(run.results, run.errors, run.ctx)
        else:
            legs = {}
            for traced in ((False, True) if st.groups % 2 == 0 else (True, False)):
                if traced:
                    tracer.current_group = st.groups
                    tracer.install()
                    try:
                        legs[traced] = run = run_group(group, tracer, st.attempted)
                    finally:
                        tracer.uninstall()
                    # checked before the other leg can rewrite the group's output files
                    fails, counters = group.check(run.results, run.errors, run.ctx)
                else:
                    legs[traced] = run_group(group)
            st.overheads.append(legs[True].wall / legs[False].wall - 1.0)
            run = legs[True]
            wall = legs[False].wall + legs[True].wall
        st.timed += wall
        st.attempted += group.ops
        st.failed += sum(f is not None for f in fails)
        st.problems.extend(f for f in fails if f is not None)
        if st.groups < st.window_groups:
            counters["runtime_warnings"] = run.runtime_warnings
            for key, value in counters.items():
                st.window[key] += value
        st.groups += 1
        if since >= REF_INTERVAL_S:
            flush()
    if pending:
        flush()
    while len(st.setups) < SETUP_PAIRS:
        st.setups.append(setup_pair(args.workload, setup_input, len(st.setups) % 2 == 0))
    return st


def run_workload(args, qs, workdir: str, min_ops: int = MIN_OPS, **workload_kwargs) -> dict:
    """One benchmark run; returns the result object and the report lines."""
    import numpy as np

    import tracing
    import workloads

    eigh = np.linalg.eigh  # bare, captured before any tracer rebinds it
    wl = workloads.WORKLOADS[args.workload](qs, args.seed, workdir, **workload_kwargs)
    setup_input = wl.setup_input(args.seed)
    setup_pair(args.workload, setup_input, True)  # compiles bytecode; not counted
    tracer = tracing.Tracer() if args.trace else None
    speed = SpeedReference(np, eigh, workdir)
    st = timed_loop(args, wl, min_ops, tracer, speed, setup_input)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = workloads.run_probes(qs, args.seed, workdir)

    lines = ["manifest " + json.dumps(manifest(args, np, st.attempted, st.groups), sort_keys=True)]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(wall / ref for wall, ref, _ in st.setups) * REFERENCE_CHILD_S,
            "throughput_ops_s": statistics.median(st.block_rates),
            "op_p50_ms": float(np.percentile(st.lat, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(st.lat, 90)) * 1e3,
            "ok_frac": (st.attempted - st.failed) / st.attempted,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
        lines.append(
            f"speed reference: median slowness {statistics.median(speed.times):.4f} over {len(speed.times)} "
            f"measurements (1 at nominal speed); raw setup_s "
            f"{statistics.median(wall for wall, _, _ in st.setups):.6g} (reference child "
            f"{statistics.median(ref for _, ref, _ in st.setups):.6g}), raw throughput_ops_s "
            f"{statistics.median(st.raw_rates):.6g}, raw op_p50_ms {np.percentile(st.raw_lat, 50) * 1e3:.6g}, "
            f"raw op_p90_ms {np.percentile(st.raw_lat, 90) * 1e3:.6g}"
        )
        beyond = int(np.count_nonzero(np.asarray(st.lat) > np.percentile(st.lat, 90)))
        lines.append(f"latency samples: {len(st.lat)} ops, {beyond} beyond p90; {len(st.block_rates)} throughput blocks")
    else:
        if args.spans:
            tracer.write_spans(args.spans)
        metrics = tracing.per_layer(
            tracer,
            ops=st.attempted,
            window_groups=st.window_groups,
            window_ops=st.window_groups * st.group_ops,
            window_counts=st.window,
            eigh_floor_ms=eigh_floor_ms(np, eigh, wl.floor_dim, args.seed),
            imports={k: statistics.median(p[k] for _, _, p in st.setups) for k in ("numpy_s", "qspoof_s")},
            overhead_frac=statistics.median(st.overheads),
            known_defects=sum(p is not None for _, p in probes),
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    lines += [f"metric {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines += [f"probe {name}: {'ok' if p is None else 'FAIL ' + p}" for name, p in probes]
    lines += [f"failed op: {p}" for p in st.problems[:10]]
    result = {
        "correct": st.failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "lines": lines}


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    qs = load_program()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        out = run_workload(args, qs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
