"""CLI output bytes pinned against stored files.

Each scenario under ``tests/data`` sits next to the CSV its subcommands
wrote before density operators kept their own spectrum; a change that
moves any digit of the 12-significant-digit output shows up here.
"""

from pathlib import Path

import pytest

from qspoof import cli

DATA = Path(__file__).parent / "data"

CASES = [
    ("radar_readme", "detect"),
    ("radar_readme", "attack"),
    ("radar_readme", "roc"),
    ("radar_readme", "photon-sweep"),
    ("explicit_noncommuting", "detect"),
    ("explicit_noncommuting", "attack"),
]


@pytest.mark.parametrize("scenario,command", CASES)
def test_csv_output_matches_golden(tmp_path, scenario, command):
    out = tmp_path / f"{command}.csv"
    code = cli.main([command, "--config", str(DATA / f"{scenario}.json"), "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / f"{scenario}_{command}.csv").read_bytes()
