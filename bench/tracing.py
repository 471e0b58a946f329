"""In-memory span tracer installed around qspoof's public functions.

The tracer never edits the package.  ``install`` rebinds every traced
public name in each ``qspoof`` module that holds it (so
``qspoof.radar.optimal_attack``, ``qspoof.cli.optimal_attack`` and
``qspoof.verify.optimal_attack`` all point at one wrapper), patches the
validating ``__post_init__`` of ``DensityOperator`` and
``ProjectorMeasurement``, and rebinds ``numpy.linalg.eigh`` /
``numpy.linalg.eigvalsh`` with call counters.  ``uninstall`` restores
every original object.

A span is (name, start, end, parent, op, group).  Spans live in compact
arrays until the run ends; ``per_layer`` reduces them to the per-module
metrics.  Self time is a span's duration minus the durations of its
direct children (calls are strictly nested in this single-threaded
program, so that is the time the children cover).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute): the traced public entry points of each layer.
TRACED = (
    ("cli.main", "qspoof.cli", "main"),
    ("config.load_config", "qspoof.config", "load_config"),
    ("verify.run_verification", "qspoof.verify", "run_verification"),
    ("radar.roc_sweep", "qspoof.radar", "roc_sweep"),
    ("radar.photon_sweep", "qspoof.radar", "photon_sweep"),
    ("detection.helstrom_measurement", "qspoof.detection", "helstrom_measurement"),
    ("adversary.optimal_attack", "qspoof.adversary", "optimal_attack"),
    ("adversary.attacker_utility", "qspoof.adversary", "attacker_utility"),
    ("adversary.oracle_attack", "qspoof.adversary", "oracle_attack"),
    ("channels.realize_channel", "qspoof.channels", "realize_channel"),
    ("channels.apply_channel", "qspoof.channels", "apply_channel"),
    ("operators.relative_entropy", "qspoof.operators", "relative_entropy"),
    ("serialize.json_text", "qspoof.serialize", "json_text"),
    ("serialize.csv_text", "qspoof.serialize", "csv_text"),
    ("serialize.roc_csv", "qspoof.serialize", "roc_csv"),
    ("serialize.photon_csv", "qspoof.serialize", "photon_csv"),
    ("serialize.matrix_to_literal", "qspoof.serialize", "matrix_to_literal"),
)
# (span name, module, class): validating constructors, traced via __post_init__.
VALIDATORS = (
    ("operators.DensityOperator", "qspoof.operators", "DensityOperator"),
    ("detection.ProjectorMeasurement", "qspoof.detection", "ProjectorMeasurement"),
)
SPAN_NAMES = tuple(n for n, _, _ in TRACED) + tuple(n for n, _, _ in VALIDATORS)

# Per-module metrics: (name, unit, better).  bench/METRICS.md gives each one's
# definition and the end-to-end metric it should move.
PER_LAYER = (
    ("operators.eigh_calls_per_op", "count", "lower"),
    ("operators.eigh_floor_ms", "ms", "lower"),
    ("operators.density_validate_s", "s", "lower"),
    ("operators.relative_entropy_s", "s", "lower"),
    ("detection.helstrom_s", "s", "lower"),
    ("detection.helstrom_calls", "count", "lower"),
    ("detection.projector_validate_s", "s", "lower"),
    ("adversary.attack_self_s", "s", "lower"),
    ("adversary.attack_calls", "count", "lower"),
    ("adversary.utility_share", "ratio", "lower"),
    ("adversary.attack_over_eigh_floor", "ratio", "lower"),
    ("adversary.oracle_s", "s", "lower"),
    ("adversary.oracle_calls", "count", "lower"),
    ("adversary.oracle_nonconverged", "ratio", "lower"),
    ("adversary.runtime_warnings", "count", "lower"),
    ("adversary.known_defects", "count", "lower"),
    ("channels.realize_s", "s", "lower"),
    ("channels.apply_s", "s", "lower"),
    ("channels.kraus_ops", "count", "lower"),
    ("radar.roc_self_s", "s", "lower"),
    ("radar.photon_self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("serialize.emit_s", "s", "lower"),
    ("serialize.bytes_out", "B", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.import_qspoof_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Span recorder plus per-group counters; inactive until ``install``."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.current_group = -1
        # per group: eigh/eigvalsh calls inside op spans, Kraus operators built
        self.eigh_in_ops = defaultdict(int)
        self.kraus_ops = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name_idx: int, fn, on_result=None):
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(name_idx)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.current_op)
            tr.group.append(tr.current_group)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _counting_wrapper(self, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.current_op >= 0:
                tr.eigh_in_ops[tr.current_group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_kraus(self, channel) -> None:
        self.kraus_ops[self.current_group] += len(channel.operators)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name in every loaded qspoof module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "qspoof" or k.startswith("qspoof.")]
        for idx, (span, mod, attr) in enumerate(TRACED):
            orig = getattr(sys.modules[mod], attr)
            hook = self._count_kraus if span == "channels.realize_channel" else None
            wrapped = self._span_wrapper(idx, orig, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, wrapped)
        for j, (span, mod, cls_name) in enumerate(VALIDATORS):
            cls = getattr(sys.modules[mod], cls_name)
            self._rebind(cls, "__post_init__", self._span_wrapper(len(TRACED) + j, cls.__post_init__))
        for attr in ("eigh", "eigvalsh"):
            self._rebind(np.linalg, attr, self._counting_wrapper(getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reduction --------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays plus each span's self time."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": name,
            "parent": parent,
            "op": np.asarray(self.op, dtype=np.int64),
            "group": np.asarray(self.group, dtype=np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def write_spans(self, path: str) -> None:
        """Dump every span as one JSON line."""
        s = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(s["name"].size):
                fh.write(
                    json.dumps(
                        {
                            "name": SPAN_NAMES[s["name"][i]],
                            "start": float(s["start"][i]),
                            "end": float(s["end"][i]),
                            "parent": int(s["parent"][i]),
                            "op": int(s["op"][i]),
                            "group": int(s["group"][i]),
                        }
                    )
                    + "\n"
                )


def per_layer(
    tracer: Tracer,
    ops: int,
    window_groups: int,
    window_ops: int,
    window_counts: dict,
    eigh_floor_ms: float,
    imports: dict,
    overhead_frac: float,
    known_defects: int,
) -> dict:
    """Reduce the traced run to the per-module metrics.

    Times are seconds per op over every traced op.  Counts are per op
    over the first ``window_groups`` groups (``window_ops`` ops), a prefix
    every traced run completes, so they repeat exactly for one seed.
    ``window_counts`` holds the benchmark-side counts over that prefix
    (helper calls outside spans: warnings, output bytes, oracle stats).
    """
    s = tracer.spans()
    idx = {n: i for i, n in enumerate(SPAN_NAMES)}
    per_op = 1.0 / max(ops, 1)
    in_window = s["group"] < window_groups

    def mask(name):
        return s["name"] == idx[name]

    def self_s(name):
        return float(s["self"][mask(name)].sum()) * per_op

    def count(name):
        return int(np.count_nonzero(mask(name) & in_window)) / window_ops

    parent = s["parent"]
    has_parent = parent >= 0

    def parent_in(m):
        out = np.zeros_like(m)
        out[has_parent] = m[parent[has_parent]]
        return out

    attack = mask("adversary.optimal_attack")
    attack_total = float(s["dur"][attack].sum())
    util_in_attack = mask("adversary.attacker_utility") & parent_in(attack)
    utility_share = float(s["dur"][util_in_attack].sum()) / attack_total if attack_total > 0 else 0.0
    attack_median_ms = float(np.median(s["dur"][attack])) * 1e3 if attack.any() else 0.0
    ser = np.isin(s["name"], [i for n, i in idx.items() if n.startswith("serialize.")])
    emit = float(s["dur"][ser & ~parent_in(ser)].sum()) * per_op

    oracle_calls = int(np.count_nonzero(mask("adversary.oracle_attack") & in_window))
    return {
        "operators.eigh_calls_per_op": sum(tracer.eigh_in_ops[g] for g in range(window_groups)) / window_ops,
        "operators.eigh_floor_ms": eigh_floor_ms,
        "operators.density_validate_s": self_s("operators.DensityOperator"),
        "operators.relative_entropy_s": self_s("operators.relative_entropy"),
        "detection.helstrom_s": self_s("detection.helstrom_measurement"),
        "detection.helstrom_calls": count("detection.helstrom_measurement"),
        "detection.projector_validate_s": self_s("detection.ProjectorMeasurement"),
        "adversary.attack_self_s": self_s("adversary.optimal_attack"),
        "adversary.attack_calls": count("adversary.optimal_attack"),
        "adversary.utility_share": utility_share,
        "adversary.attack_over_eigh_floor": attack_median_ms / eigh_floor_ms if eigh_floor_ms > 0 else 0.0,
        "adversary.oracle_s": self_s("adversary.oracle_attack"),
        "adversary.oracle_calls": oracle_calls / window_ops,
        "adversary.oracle_nonconverged": window_counts["oracle_nonconverged"] / oracle_calls if oracle_calls else 0.0,
        "adversary.runtime_warnings": window_counts["runtime_warnings"] / window_ops,
        "adversary.known_defects": known_defects,
        "channels.realize_s": self_s("channels.realize_channel"),
        "channels.apply_s": self_s("channels.apply_channel"),
        "channels.kraus_ops": sum(tracer.kraus_ops[g] for g in range(window_groups)) / window_ops,
        "radar.roc_self_s": self_s("radar.roc_sweep"),
        "radar.photon_self_s": self_s("radar.photon_sweep"),
        "verify.self_s": self_s("verify.run_verification"),
        "config.load_s": float(s["dur"][mask("config.load_config")].sum()) * per_op,
        "serialize.emit_s": emit,
        "serialize.bytes_out": window_counts["bytes_out"] / window_ops,
        "cli.main_self_s": self_s("cli.main"),
        "cli.import_numpy_s": imports["numpy_s"],
        "cli.import_qspoof_s": imports["qspoof_s"],
        "trace.overhead_frac": overhead_frac,
    }
