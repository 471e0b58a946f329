"""Rewrite ``tests/data/cli_manifest.json`` from the current code.

Run from the repository root: ``python tests/make_cli_manifest.py``.
The runs and their scenarios are those of ``tests/test_cli_manifest.py``;
rewrite the file only when a change to the output is intended, and list
the runs that moved.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_cli_manifest import MANIFEST, run_all  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        results = run_all(Path(workdir))
    MANIFEST.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} runs to {MANIFEST}")


if __name__ == "__main__":
    main()
