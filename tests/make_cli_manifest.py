"""Rewrite every pinned CLI output that is not a file of its own scenario:
``tests/data/cli_manifest.json`` and ``tests/data/verify_seed0.json``.

Run from the repository root: ``python tests/make_cli_manifest.py``.
The manifest's runs and their scenarios are those of
``tests/test_cli_manifest.py``; the verify report is
``qspoof verify --seed 0`` without its wall-clock time, as
``tests/test_golden.py`` compares it.  Rewrite the files only when a
change to the output is intended, and list the runs and figures that
moved.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_cli_manifest import MANIFEST, run_all  # noqa: E402
from test_golden import VERIFY_GOLDEN, verify_seed0_text  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        results = run_all(Path(workdir))
        verify_text = verify_seed0_text(Path(workdir))
    MANIFEST.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} runs to {MANIFEST}")
    VERIFY_GOLDEN.write_text(verify_text, encoding="utf-8")
    print(f"wrote the verify --seed 0 report to {VERIFY_GOLDEN}")


if __name__ == "__main__":
    main()
