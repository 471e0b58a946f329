"""CLI output bytes pinned, as digests, over scenarios drawn from a fixed seed.

Radar scenarios draw ``n_b`` and ``x`` in [0, 1] (endpoints included),
``k`` <= 6, ``l`` <= 8, unequal cost weights, one to three prices in
1e-3..1e12 and sometimes a ``sweep.tau``, ``tau_grid`` or ``l_values``.
Explicit scenarios draw two states of dimension 2..6, full or random
rank, real or complex.  Each scenario runs ``detect``, ``attack``,
``roc`` and ``photon-sweep`` in both formats, and every command that
takes ``--tau`` also runs with it; flag and validation failures that
exit 2 follow.  ``tests/data/cli_manifest.json`` maps each run to its
exit code and the SHA-256 of its stdout and of its stderr, as the code
wrote them when the file was made (``python tests/make_cli_manifest.py``
rewrites it, and ``tests/data/verify_seed0.json`` with it).  A change
that moves any byte of any run shows up here, with the runs that moved
and the scenarios that produced them.
"""

import contextlib
import hashlib
import io
import json
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from qspoof import cli

MANIFEST = Path(__file__).parent / "data" / "cli_manifest.json"
SEED = 20210621
RADAR_SCENARIOS = 40
EXPLICIT_SCENARIOS = 20
TAU_COMMANDS = ("detect", "attack", "photon-sweep")


def _log_uniform(rng, lo, hi, size=None):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)


def _weight(rng) -> float:
    u = rng.uniform()
    return 0.0 if u < 0.1 else 1.0 if u < 0.2 else float(rng.uniform())


def _common(rng, block: dict) -> dict:
    """Cost weights, prices and the optional sweep fields around a scenario block."""
    c0 = float(rng.uniform(0.05, 0.95))
    block.update(c0=c0, c1=1.0 - c0)
    cfg = {"attack": {"lambdas": _log_uniform(rng, 1e-3, 1e12, int(rng.integers(1, 4))).tolist()}}
    sweep = {}
    if rng.uniform() < 0.3:
        sweep["tau"] = float(_log_uniform(rng, 1e-2, 1e2))
    if rng.uniform() < 0.3:
        sweep["tau_grid"] = sorted(set(_log_uniform(rng, 1e-2, 1e2, int(rng.integers(1, 13))).tolist()))
    if rng.uniform() < 0.3:
        sweep["l_values"] = rng.integers(0, 9, int(rng.integers(1, 7))).tolist()
    if sweep:
        cfg["sweep"] = sweep
    return cfg


def _radar(rng) -> dict:
    block = {"n_b": _weight(rng), "x": _weight(rng), "k": int(rng.integers(0, 7)), "l": int(rng.integers(0, 9))}
    return {"radar": block, **_common(rng, block)}


def _state_literal(rng, d: int, rank: int, real: bool) -> list:
    g = rng.standard_normal((d, rank))
    if not real:
        g = g + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m = m / np.trace(m).real
    if real:
        return m.real.tolist()
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def _explicit(rng) -> dict:
    d = int(rng.integers(2, 7))
    real = bool(rng.uniform() < 0.5)
    ranks = [d if rng.uniform() < 0.5 else int(rng.integers(1, d + 1)) for _ in range(2)]
    block = {f"rho{i}": _state_literal(rng, d, rank, real) for i, rank in enumerate(ranks)}
    return {"explicit": block, **_common(rng, block)}


_README = {
    "radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5},
    "attack": {"lambdas": [0.5, 1.0, 2.0]},
}


def _with(path: str, value) -> dict:
    """The README scenario with the field at dotted ``path`` set to ``value`` (``None`` drops it)."""
    cfg = json.loads(json.dumps(_README))
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    if value is None:
        del node[leaf]
    else:
        node[leaf] = value
    return cfg


def _explicit_rho0(rho0) -> dict:
    """An explicit scenario with ``rho0`` given as is, beside a valid qubit rho1."""
    return {"explicit": {"rho0": rho0, "rho1": [[1.0, 0.0], [0.0, 0.0]], "c0": 0.5, "c1": 0.5}}


# Runs that exit 2: (name, config or raw config text, argv after the command's --config).
_FAILURES = [
    ("roc-tau", "roc", _README, ["--tau", "1"]),
    ("detect-lambda", "detect", _README, ["--lambda", "1"]),
    ("detect-seed", "detect", _README, ["--seed", "1"]),
    ("attack-format-xml", "attack", _README, ["--format", "xml"]),
    ("attack-lambda-zero", "attack", _README, ["--lambda", "0"]),
    ("attack-lambda-negative", "attack", _README, ["--lambda", "-1"]),
    ("attack-lambda-nan", "attack", _README, ["--lambda", "nan"]),
    ("attack-lambda-inf", "attack", _README, ["--lambda", "inf"]),
    ("attack-lambda-subnormal", "attack", _README, ["--lambda", "1e-320"]),
    ("attack-lambda-word", "attack", _README, ["--lambda", "one"]),
    ("detect-tau-zero", "detect", _README, ["--tau", "0"]),
    ("detect-tau-inf", "detect", _README, ["--tau", "inf"]),
    ("detect-tau-negative", "detect", _README, ["--tau", "-2"]),
    ("photon-sweep-tau-nan", "photon-sweep", _README, ["--tau", "nan"]),
    ("detect-no-config", "detect", None, []),
    ("attack-no-lambdas", "attack", _with("attack", None), []),
    ("photon-sweep-no-lambdas", "photon-sweep", _with("attack", None), []),
    ("roc-bad-json", "roc", '{"radar": {"n_b": 0.4,', []),
    ("roc-not-object", "roc", [1, 2], []),
    ("roc-unknown-root", "roc", _with("extra", 1), []),
    ("roc-unknown-radar", "roc", _with("radar.m", 1), []),
    ("roc-missing-k", "roc", _with("radar.k", None), []),
    ("roc-n_b-above-one", "roc", _with("radar.n_b", 1.5), []),
    ("roc-x-negative", "roc", _with("radar.x", -0.1), []),
    ("roc-k-float", "roc", _with("radar.k", 1.5), []),
    ("roc-l-bool", "roc", _with("radar.l", True), []),
    ("roc-weights-sum", "roc", _with("radar.c1", 0.6), []),
    ("roc-c0-zero", "roc", {**_README, "radar": {**_README["radar"], "c0": 0.0, "c1": 1.0}}, []),
    ("roc-lambdas-empty", "roc", _with("attack.lambdas", []), []),
    ("roc-lambda-string", "roc", _with("attack.lambdas", ["1"]), []),
    ("roc-grid-decreasing", "roc", _with("sweep.tau_grid", [2.0, 1.0]), []),
    ("roc-grid-repeated", "roc", _with("sweep.tau_grid", [1.0, 1.0]), []),
    ("roc-grid-zero", "roc", _with("sweep.tau_grid", [0.0, 1.0]), []),
    ("photon-sweep-l-negative", "photon-sweep", _with("sweep.l_values", [1, -1]), []),
    ("photon-sweep-l-empty", "photon-sweep", _with("sweep.l_values", []), []),
    ("detect-format-field", "detect", _with("output.format", "xml"), []),
    ("detect-path-empty", "detect", _with("output.path", ""), []),
    ("detect-both-blocks", "detect", {**_README, "explicit": {}}, []),
    ("detect-no-block", "detect", {"attack": {"lambdas": [1.0]}}, []),
    ("detect-not-hermitian", "detect", _explicit_rho0([[0.5, 0.1], [0.0, 0.5]]), []),
    ("detect-trace-two", "detect", _explicit_rho0([[1.0, 0.0], [0.0, 1.0]]), []),
    ("detect-ragged", "detect", _explicit_rho0([[1.0, 0.0], [0.0]]), []),
    ("detect-dims-differ", "detect", _explicit_rho0([[1.0]]), []),
]


def scenarios() -> dict:
    """Each drawn scenario by name: its config and the threshold of its ``--tau`` runs."""
    rng = np.random.default_rng(SEED)
    out = {}
    for name, draw, count in (("radar", _radar, RADAR_SCENARIOS), ("explicit", _explicit, EXPLICIT_SCENARIOS)):
        for i in range(count):
            cfg = draw(rng)
            out[f"{name}{i:02d}"] = {"config": cfg, "tau": float(_log_uniform(rng, 1e-2, 1e2))}
    return out


def runs() -> dict:
    """Every run by key: the scenario it shows, its config (or raw text, or None) and its argv."""
    out = {}
    for name, s in scenarios().items():
        for command in ("detect", "attack", "roc", "photon-sweep"):
            for fmt in ("csv", "json"):
                out[f"{name} {command} {fmt}"] = (name, s["config"], [command, "--format", fmt])
                if command in TAU_COMMANDS:
                    argv = [command, "--format", fmt, "--tau", repr(s["tau"])]
                    out[f"{name} {command} {fmt} --tau"] = (name, s["config"], argv)
    for name, command, cfg, argv in _FAILURES:
        out[f"fail {name}"] = (f"fail {name}", cfg, [command, *argv])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all(workdir: Path) -> dict:
    """Every run's [exit code, stdout SHA-256, stderr SHA-256], in-process, warnings as errors.

    Usage text is wrapped at a fixed 80 columns, so it does not depend on the terminal."""
    results = {}
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for i, (key, (_, cfg, argv)) in enumerate(runs().items()):
            if cfg is not None:
                path = workdir / f"run{i}.json"
                path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
                argv = [argv[0], "--config", str(path), *argv[1:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            results[key] = [code, _sha(out.getvalue()), _sha(err.getvalue())]
    return results


def moved_runs(expected: dict, got: dict) -> list[str]:
    """The runs whose results differ between two manifests, and the
    scenarios that produced them, as lines; none when nothing moved."""
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    if not moved:
        return []
    every_run, drawn = runs(), scenarios()
    lines = [f"{len(moved)} of {len(expected)} runs moved:"]
    lines += [f"  {key}: manifest {expected.get(key)}, now {got.get(key)}" for key in moved]
    lines.append("from the scenarios:")
    for name in sorted({every_run[key][0] for key in moved if key in every_run}):
        case = drawn.get(name) or {"config": every_run[name][1], "argv": every_run[name][2]}
        lines.append(f"  {name}: {json.dumps(case)}")
    return lines


def test_cli_runs_match_manifest(tmp_path):
    moved = moved_runs(json.loads(MANIFEST.read_text(encoding="utf-8")), run_all(tmp_path))
    if moved:
        raise AssertionError("\n".join(moved))
