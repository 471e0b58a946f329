"""Rewrite every pinned CLI output that is not a file of its own scenario:
``tests/data/cli_manifest.json`` and ``tests/data/verify_seed0.json``.

Run from the repository root: ``python tests/make_cli_manifest.py``.
The manifest's runs and their scenarios are those of
``tests/test_cli_manifest.py``; the verify report is
``qspoof verify --seed 0`` without its wall-clock time, as
``tests/test_golden.py`` compares it.  Before writing, it prints what
moved against the files on disk: the manifest runs, listed as
``test_cli_runs_match_manifest`` lists them on failure, and every
verify figure (each check's stats, ``detail`` and the other report
fields), old -> new.  Rewrite the files only when a change to the output
is intended, and record the runs and figures that moved.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_cli_manifest import MANIFEST, moved_runs, run_all  # noqa: E402
from test_golden import VERIFY_GOLDEN, verify_seed0_text  # noqa: E402


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _leaves(node, prefix: str = "") -> dict:
    """A JSON value as {dotted path: leaf}; a verify check is keyed by its name."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and all(isinstance(c, dict) and "name" in c for c in node):
        items = ((c["name"], {k: v for k, v in c.items() if k != "name"}) for c in node)
    else:
        return {prefix: node}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def moved_figures(old: dict, new: dict) -> list[str]:
    """Every verify report field that differs between two reports, old -> new."""
    before, after = _leaves(old), _leaves(new)
    return [
        f"  {path}: {before.get(path)!r} -> {after.get(path)!r}"
        for path in sorted(before.keys() | after.keys())
        if before.get(path) != after.get(path)
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        results = run_all(Path(workdir))
        verify_text = verify_seed0_text(Path(workdir))
    print("\n".join(moved_runs(_read(MANIFEST), results) or ["0 runs moved"]))
    figures = moved_figures(_read(VERIFY_GOLDEN), json.loads(verify_text))
    print("\n".join([f"{len(figures)} verify figures moved" + (":" if figures else "")] + figures))
    MANIFEST.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} runs to {MANIFEST}")
    VERIFY_GOLDEN.write_text(verify_text, encoding="utf-8")
    print(f"wrote the verify --seed 0 report to {VERIFY_GOLDEN}")


if __name__ == "__main__":
    main()
