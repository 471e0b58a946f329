"""CLI output bytes pinned against stored files.

Each scenario under ``tests/data`` sits next to the outputs its
subcommands wrote at an earlier commit, in both formats for every
subcommand the scenario supports: CSV with 12 significant digits, and
JSON at full precision (``detect`` with the spectrum and the projector,
``attack`` with the utility, Z1 and rho1').  A change that moves any
digit shows up here.
"""

from pathlib import Path

import pytest

from qspoof import cli

DATA = Path(__file__).parent / "data"

CASES = {
    "csv": [
        ("radar_readme", "detect"),
        ("radar_readme", "attack"),
        ("radar_readme", "roc"),
        ("radar_readme", "photon-sweep"),
        ("radar_k4", "roc"),
        ("radar_k4", "photon-sweep"),
        ("explicit_noncommuting", "detect"),
        ("explicit_noncommuting", "attack"),
    ],
    "json": [
        ("radar_readme", "detect"),
        ("radar_readme", "attack"),
        ("radar_readme", "roc"),
        ("radar_readme", "photon-sweep"),
        ("radar_k4", "roc"),
        ("radar_k4", "photon-sweep"),
        ("explicit_noncommuting", "detect"),
        ("explicit_noncommuting", "attack"),
    ],
}


def assert_golden(tmp_path, scenario, command, fmt):
    out = tmp_path / f"{command}.{fmt}"
    code = cli.main([command, "--config", str(DATA / f"{scenario}.json"), "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / f"{scenario}_{command}.{fmt}").read_bytes()


@pytest.mark.parametrize("scenario,command", CASES["csv"])
def test_csv_output_matches_golden(tmp_path, scenario, command):
    assert_golden(tmp_path, scenario, command, "csv")


@pytest.mark.parametrize("scenario,command", CASES["json"])
def test_json_output_matches_golden(tmp_path, scenario, command):
    assert_golden(tmp_path, scenario, command, "json")
