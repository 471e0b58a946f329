"""CLI output bytes pinned against stored files.

Each scenario under ``tests/data`` sits next to the outputs its
subcommands wrote at an earlier commit, in both formats for every
subcommand the scenario supports: CSV with 12 significant digits, and
JSON at full precision (``detect`` with the spectrum and the projector,
``attack`` with the utility, Z1 and rho1').  ``verify_seed0.json`` holds
``qspoof verify --seed 0`` without its wall-clock time.  A change that
moves any digit shows up here.
"""

import json
from pathlib import Path

import pytest

from qspoof import cli
from qspoof.serialize import json_text

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


def test_verify_output_matches_golden(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report.pop("wall_clock_seconds") > 0.0
    assert json_text(report) == (DATA / "verify_seed0.json").read_text(encoding="utf-8")
