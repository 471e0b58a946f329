"""Self-test of the benchmark harness.

Usage (from the repository root, under a minute):

    python3 bench/selftest.py

Runs a tiny pass of every workload, untraced and traced, and asserts that
- ``BENCHMARK.json`` lists exactly the metrics the harness reports;
- every end-to-end and per-module metric prints by name with its unit,
  and the result line has exactly the keys correct, attempted, failed, metrics;
- the traced run writes spans with name, start, end, parent, op, group;
- deliberately corrupted outputs are counted as failed: a ``rho1'``
  scaled off unit trace (library and CLI paths) and a failed battery.
Exits non-zero on the first failed assertion.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Tiny sizes: one group per run, d = 8 for the dense pairs.
TINY = {
    "radar_cli": ({}, len(workloads.RadarCli.PATTERN)),
    "dense_attack": ({"dim": 8}, 5),
    "verify_battery": ({}, 2),
}


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_registry():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(listed == list(run.END_TO_END), f"end_to_end in BENCHMARK.json {listed} != {run.END_TO_END}")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(listed == list(tracing.PER_LAYER), "per_layer in BENCHMARK.json differs from tracing.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES), "workload names differ")


def tiny_run(qs, workdir, name, trace, spans=None):
    kwargs, min_ops = TINY[name]
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    if spans:
        argv += ["--spans", spans]
    return run.run_workload(run.parse_args(argv), qs, workdir, min_ops=min_ops, **kwargs)


def check_output(out, trace):
    result = out["result"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expected = run.END_TO_END if not trace else [r[:2] for r in tracing.PER_LAYER]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    expect(got == list(expected), f"metrics {got} != {expected}")
    for name, unit in expected:
        expect(any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in out["lines"]),
               f"no printed line for {name} [{unit}]")
    expect(result["correct"] and result["failed"] == 0, f"tiny run not correct: {out['lines'][-5:]}")


class CorruptDense(workloads.DenseAttack):
    """Dense workload whose ops deliver rho1' scaled to trace 1.01."""

    def next_group(self):
        group = super().next_group()

        def corrupt(step):
            def run_step(ctx):
                sol = step(ctx)
                bad = types.SimpleNamespace(matrix=sol.rho1_prime.matrix * 1.01)
                return dataclasses.replace(sol, rho1_prime=bad)

            return run_step

        group.steps = [corrupt(s) if op else s for s, op in zip(group.steps, group.is_op)]
        return group


def check_corruption(qs, workdir):
    # library path, through the whole loop: every corrupted op counts as failed
    workloads.WORKLOADS["dense_attack"] = CorruptDense
    try:
        out = tiny_run(qs, workdir, "dense_attack", 0)
    finally:
        workloads.WORKLOADS["dense_attack"] = workloads.DenseAttack
    result = out["result"]
    expect(result["failed"] == result["attempted"] and not result["correct"], "scaled rho1' not counted as failed")
    expect(any("trace" in line for line in out["lines"] if line.startswith("failed op")), "failure does not name the trace")

    # CLI path: scale rho1' in a real attack output
    wl = workloads.RadarCli(qs, 0, workdir)
    call = wl._call(0, "R")
    expect(qs.cli.main(call["argv"]) == 0, "reference attack call failed")
    with open(call["out"], encoding="utf-8") as fh:
        obj = json.load(fh)
    expect(workloads.check_radar_output(call, json.dumps(obj)) is None, "clean reference output flagged")
    sol = obj["solutions"][0]
    sol["rho1_prime"] = [[v * 1.01 for v in row] for row in sol["rho1_prime"]]
    problem = workloads.check_radar_output(call, json.dumps(obj))
    expect(problem is not None and "trace" in problem, f"scaled CLI rho1' not caught: {problem}")

    # battery path: a report that is not ok is a failed op
    report = types.SimpleNamespace(
        ok=False,
        wall_clock_seconds=0.1,
        checks=[types.SimpleNamespace(name="closed_form_vs_oracle", passed=False, assertion_class=True,
                                      stats={"non_convergences": 0})],
    )
    failures, _ = workloads.VerifyBattery.check(report, None)
    expect(failures[0] is not None, "failed battery not counted")


def main() -> int:
    check_registry()
    qs = run.load_program()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT)
    try:
        for name in run.WORKLOAD_NAMES:
            check_output(tiny_run(qs, workdir, name, 0), 0)
            spans = os.path.join(workdir, "spans.jsonl")
            check_output(tiny_run(qs, workdir, name, 1, spans), 1)
            with open(spans, encoding="utf-8") as fh:
                first = json.loads(fh.readline())
            expect(set(first) == {"name", "start", "end", "parent", "op", "group"}, f"span fields {sorted(first)}")
            print(f"selftest {name}: metrics and spans ok")
        check_corruption(qs, workdir)
        print("selftest corruption: caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
