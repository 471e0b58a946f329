"""Command-line interface: subcommands, overrides, exit codes, determinism."""

import csv
import io
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from qspoof import cli
from qspoof.config import VerifyOptions
from qspoof.radar import RocCurve
from qspoof.serialize import cell
from qspoof.verify import CheckResult, RunReport

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def radar_config_path(tmp_path):
    cfg = {
        "radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5},
        "attack": {"lambdas": [1.0]},
    }
    p = tmp_path / "radar.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- detect

def test_detect_radar_point(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "detect", "--config", radar_config_path)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["p_detect"] - 0.9) <= 1e-12
    assert payload["p_false"] <= 1e-12
    assert payload["rank"] == 1
    assert abs(payload["bayes_risk"] - 0.05) <= 1e-12
    assert sorted(payload["spectrum"], reverse=True) == payload["spectrum"]


def test_detect_identical_states_trivial(capsys, tmp_path):
    cfg = {
        "explicit": {
            "rho0": [[0.5, 0.0], [0.0, 0.5]],
            "rho1": [[0.5, 0.0], [0.0, 0.5]],
            "c0": 0.5,
            "c1": 0.5,
        }
    }
    p = tmp_path / "same.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run_cli(capsys, "detect", "--config", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["p_detect"] == 0.0
    assert payload["p_false"] == 0.0
    assert payload["rank"] == 0


def test_detect_csv_format(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "detect", "--config", radar_config_path, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,rank,p_detect,p_false,bayes_risk"
    cells = lines[1].split(",")
    assert cells[1] == "1"
    assert cells[2] == "9.00000000000e-01"


def test_detect_tau_override(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "detect", "--config", radar_config_path, "--tau", "9.0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["tau"] - 9.0) <= 1e-12
    # only the signal level survives a strict threshold
    assert abs(payload["p_detect"] - 0.9) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_rejects_a_tau_with_an_overflowing_threshold(capsys, radar_config_path):
    # tau = max float gives c0 = 1/(1+tau) subnormal, and c1/c0 overflows to inf
    code, out, err = run_cli(capsys, "detect", "--config", radar_config_path, "--tau", repr(sys.float_info.max))
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: --tau: threshold c1/c0 must be finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command,sweep,flags",
    [
        ("detect", {}, ["--tau", "1.7e308"]),
        ("attack", {}, ["--tau", "1.7e308"]),
        ("roc", {"tau_grid": [0.5, 1.7e308]}, []),
        ("photon-sweep", {"tau": 1.7e308}, []),
    ],
    ids=["detect", "attack", "roc", "photon-sweep"],
)
def test_a_threshold_whose_decision_operator_overflows_exits_two(capsys, tmp_path, command, sweep, flags):
    # c1/c0 is finite, but rho1 - tau rho0 passes half the largest float; this used to exit 0 with an empty detector
    cfg = {
        "radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5},
        "attack": {"lambdas": [1.0]},
        "sweep": sweep,
    }
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(p), *flags)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith("error: threshold c1/c0 = 1.69")
    assert err.endswith(" is too large: rho1 - tau*rho0 leaves the float range\n")


# ---------------------------------------------------------------- attack

def test_attack_radar_lambda_one(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "attack", "--config", radar_config_path)
    assert code == 0
    payload = json.loads(out)
    sol = payload["solutions"][0]
    assert abs(sol["genuine_p_detect"] - 0.76803) <= 1e-5
    assert sol["bounds"]["lower_satisfied"] and sol["bounds"]["upper_satisfied"]
    assert abs(sol["z1"] - 0.43109149705429806) <= 1e-12
    assert sol["genuine_p_false"] == payload["p_false"]


def test_attack_lambda_override_multiple(capsys, radar_config_path):
    code, out, _ = run_cli(
        capsys,
        "attack",
        "--config",
        radar_config_path,
        "--format",
        "csv",
        "--lambda",
        "0.5",
        "--lambda",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("5.00000000000e-01,2.21801754913e-01")
    assert lines[2].startswith("2.00000000000e+00,6.45877593741e-01")


def test_attack_decomposes_one_exponent_for_all_prices(capsys, monkeypatch):
    # the two states checked as one stack and one Helstrom step, then one stacked attack step
    # over the scenario's three prices (not one exponent per price)
    shapes = []
    inner = np.linalg.eigh

    def counted(a):
        shapes.append(a.shape)
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, _, _ = run_cli(capsys, "attack", "--config", str(DATA / "radar_readme.json"))
    assert code == 0
    assert shapes == [(2, 1, 3, 3), (1, 3, 3), (3, 1, 3, 3)]


def test_attack_rejects_nonpositive_lambda(capsys, radar_config_path):
    code, _, err = run_cli(
        capsys, "attack", "--config", radar_config_path, "--lambda", "0"
    )
    assert code == 2
    assert "--lambda" in err


def test_attack_rejects_a_lambda_whose_reciprocal_overflows(capsys, radar_config_path):
    code, out, err = run_cli(capsys, "attack", "--config", radar_config_path, "--lambda", "1e-309")
    assert code == 2
    assert out == ""
    assert err == "error: --lambda: distortion price lam must have a finite reciprocal 1/lam, got 1e-309\n"
    code, out, _ = run_cli(capsys, "attack", "--config", radar_config_path, "--lambda", "1e-308", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("1.00000000000e-308,")


def test_attack_requires_some_lambda(capsys, tmp_path):
    cfg = {"radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5}}
    p = tmp_path / "nolam.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = run_cli(capsys, "attack", "--config", str(p))
    assert code == 2
    assert "lambdas" in err


# ---------------------------------------------------------------- sweeps

def test_roc_deterministic_bytes(capsys, radar_config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for target in (out1, out2):
        code, _, _ = run_cli(
            capsys, "roc", "--config", radar_config_path, "--out", str(target)
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "lambda,tau,p_false,p_detect,genuine_p_false,genuine_p_detect"
    assert len(lines) == 1 + 2 * 60  # undistorted curve plus lambda=1
    assert "\r" not in text


def test_roc_json_format(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "roc", "--config", radar_config_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["lambda"] is None
    assert payload[1]["lambda"] == 1.0
    assert len(payload[0]["points"]) == 60


def test_roc_json_reads_the_curve_columns(capsys, monkeypatch):
    # each point's object comes from its curve's columns; RocCurve.points is not read
    def unread(self):
        raise AssertionError("RocCurve.points was read")

    monkeypatch.setattr(RocCurve, "points", property(unread))
    code, out, _ = run_cli(capsys, "roc", "--config", str(DATA / "radar_readme.json"), "--format", "json")
    assert code == 0
    assert out == (DATA / "radar_readme_roc.json").read_text(encoding="utf-8")


def test_photon_sweep_csv(capsys, radar_config_path):
    code, out, _ = run_cli(capsys, "photon-sweep", "--config", radar_config_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,mean_photon,lambda,p_detect,genuine_p_detect"
    assert len(lines) == 1 + 6  # default window l = 0..5 for one lambda
    row2 = lines[3].split(",")  # l = 2 row
    assert row2[0] == "2"
    assert row2[4] == "7.68030683316e-01"


def test_photon_sweep_decomposes_four_stacks(capsys, radar_config_path, monkeypatch):
    # the 6 signal levels' state pairs, one Helstrom step over the levels,
    # and one attack step per support rank of rho1 (2 at l in {0, 1}, 3 at
    # l = 2..5); the sweep threshold comes from the cost weights without
    # building a pair
    calls = []
    inner = np.linalg.eigh

    def counted(a):
        calls.append(a.shape[:-2])
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, out, _ = run_cli(capsys, "photon-sweep", "--config", radar_config_path)
    assert code == 0
    assert len(out.splitlines()) == 1 + 6
    assert calls == [(2, 6), (6,), (1, 2), (1, 4)]


def test_photon_sweep_needs_radar(capsys, tmp_path):
    cfg = {
        "explicit": {
            "rho0": [[1.0, 0.0], [0.0, 0.0]],
            "rho1": [[0.0, 0.0], [0.0, 1.0]],
            "c0": 0.5,
            "c1": 0.5,
        },
        "attack": {"lambdas": [1.0]},
    }
    p = tmp_path / "explicit.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = run_cli(capsys, "photon-sweep", "--config", str(p))
    assert code == 2
    assert "radar" in err


# ---------------------------------------------------------------- verify

def test_verify_small_run_exits_zero(capsys, tmp_path):
    cfg = {
        "radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5},
        "verify": {
            "instances": 4,
            "max_dim": 3,
            "lambdas": [1.0],
            "channel_instances": 4,
        },
    }
    p = tmp_path / "verify.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--config", str(p), "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 1
    names = {c["name"] for c in payload["checks"]}
    assert {
        "closed_form_vs_oracle",
        "detection_rate_envelope",
        "channel_realization",
        "false_alarm_equality",
        "perturbation_residual_scaling",
    } <= names
    assert all(c["passed"] for c in payload["checks"] if c["assertion_class"])


def test_verify_defaults_without_config(capsys, monkeypatch):
    # stub the heavy run; this exercises only the no-config path and exit code
    sentinel = RunReport(
        version="0", seed=0, options=VerifyOptions(), wall_clock_seconds=0.0, checks=[]
    )
    monkeypatch.setattr(cli, "run_verification", lambda seed, options: sentinel)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["checks"] == []


def test_verify_failure_exits_three(capsys, monkeypatch):
    failing = RunReport(
        version="0",
        seed=0,
        options=VerifyOptions(),
        wall_clock_seconds=0.0,
        checks=[
            CheckResult(
                name="x", passed=False, assertion_class=True, detail="boom", stats={}
            )
        ],
    )
    monkeypatch.setattr(cli, "run_verification", lambda seed, options: failing)
    code, _, _ = run_cli(capsys, "verify")
    assert code == 3


def test_roc_with_an_underflowing_z1_exits_zero(capsys, tmp_path):
    # at threshold 0.01 and lam = 1e-3 every exp(w) is below the smallest
    # float; the sweep still prints finite rates with each genuine P_D <= P_D
    cfg = {
        "radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5},
        "sweep": {"tau_grid": [0.01, 1.0]},
    }
    p = tmp_path / "underflow.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run_cli(capsys, "roc", "--config", str(p), "--lambda", "1e-3", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["tau"] for row in rows] == ["1.00000000000e-02", "1.00000000000e+00"] * 2
    for row in rows:
        p_detect, genuine = float(row["p_detect"]), float(row["genuine_p_detect"])
        assert math.isfinite(genuine) and 0.0 <= genuine <= p_detect


# ---------------------------------------------------------------- csv against json


def _json_rows(command, payload):
    """The JSON output flattened to the CSV's rows: attack rows carry the
    detector's p_detect and their bounds unnested, ROC points their curve's lambda."""
    if command == "detect":
        return [payload]
    if command == "attack":
        return [{**s, **s["bounds"], "p_detect": payload["p_detect"]} for s in payload["solutions"]]
    if command == "roc":
        return [{"lambda": c["lambda"], **p} for c in payload for p in c["points"]]
    return payload


@pytest.mark.parametrize(
    "scenario,command",
    [("radar_readme", c) for c in ("detect", "attack", "roc", "photon-sweep")]
    + [("explicit_noncommuting", c) for c in ("detect", "attack", "roc")],
)
def test_csv_cells_follow_the_json_values(capsys, scenario, command):
    # the two renderings of one output: each CSV cell is serialize.cell of
    # the JSON value, and the undistorted ROC curve leaves lambda empty
    config = str(DATA / f"{scenario}.json")
    code, text, _ = run_cli(capsys, command, "--config", config, "--format", "csv")
    assert code == 0
    code, out, _ = run_cli(capsys, command, "--config", config, "--format", "json")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    json_rows = _json_rows(command, json.loads(out))
    assert len(rows) == len(json_rows) > 0
    for row, values in zip(rows, json_rows):
        for name, text_cell in row.items():
            value = values[name]
            assert text_cell == ("" if value is None else cell(value)), (name, value)


# ---------------------------------------------------------------- parser reuse

def test_main_calls_share_no_parser_state(capsys, radar_config_path, tmp_path):
    # the parser is built once per process; appended --lambda values and
    # usage errors must not leak from one call into the next
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    common = ("attack", "--config", radar_config_path, "--format", "csv")
    assert run_cli(capsys, *common, "--lambda", "0.5", "--lambda", "2", "--out", str(first))[0] == 0
    assert run_cli(capsys, *common, "--lambda", "2", "--out", str(second))[0] == 0
    assert len(first.read_text(encoding="utf-8").splitlines()) == 3
    lines = second.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2.00000000000e+00,")
    for _ in range(2):
        with pytest.raises(SystemExit) as usage:
            cli.main(["attack", "--lambda", "1"])
        assert usage.value.code == 2
        assert "--config" in capsys.readouterr().err
    # a config value is used again once no flag overrides it
    code, out, _ = run_cli(capsys, "attack", "--config", radar_config_path, "--format", "csv")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1.00000000000e+00"]


def test_version_flag_unchanged_across_calls(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            cli.main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out == f"qspoof {cli.__version__}\n"


# ---------------------------------------------------------------- errors and I/O

def test_missing_config_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "detect", "--config", str(tmp_path / "absent.json"))
    assert code == 4
    assert "absent.json" in err


def test_malformed_json_is_validation_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "detect", "--config", str(p))
    assert code == 2
    assert "line" in err


def test_unknown_field_is_validation_error(capsys, tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(
        json.dumps({"radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5}, "bogus": 1}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "detect", "--config", str(p))
    assert code == 2
    assert "bogus" in err


def test_unwritable_out_is_io_error(capsys, radar_config_path, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(
        capsys, "roc", "--config", radar_config_path, "--out", str(target)
    )
    assert code == 4
    assert "out.csv" in err


# ``--out`` over an existing file: what open("w") gives, from an in-place write


def _detect_bytes(capsys, radar_config_path, *argv):
    """The bytes ``detect`` writes to stdout, then to ``--out`` with ``argv``."""
    code, out, _ = run_cli(capsys, "detect", "--config", radar_config_path)
    assert code == 0
    code, _, _ = run_cli(capsys, "detect", "--config", radar_config_path, *argv)
    assert code == 0
    return out.encode("utf-8")


@pytest.mark.parametrize("old", [b"x" * 100_000, b"ab"], ids=["longer", "shorter"])
def test_out_over_an_existing_file_holds_exactly_the_new_bytes(capsys, radar_config_path, tmp_path, old):
    target = tmp_path / "point.json"
    target.write_bytes(old)
    expected = _detect_bytes(capsys, radar_config_path, "--out", str(target))
    assert target.read_bytes() == expected
    assert target.stat().st_size == len(expected)


def test_out_keeps_the_existing_files_inode_and_permissions(capsys, radar_config_path, tmp_path):
    target = tmp_path / "point.json"
    target.write_bytes(b"x" * 100_000)
    target.chmod(0o640)
    before = target.stat()
    _detect_bytes(capsys, radar_config_path, "--out", str(target))
    after = target.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640


def test_out_through_a_symlink_writes_its_target(capsys, radar_config_path, tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(b"x" * 100_000)
    link = tmp_path / "link.json"
    try:
        link.symlink_to(real)
    except OSError:
        pytest.skip("symlinks unavailable")
    expected = _detect_bytes(capsys, radar_config_path, "--out", str(link))
    assert link.is_symlink()
    assert real.read_bytes() == expected


def test_out_to_the_null_device_exits_zero(capsys, radar_config_path):
    # a character device is written but not cut to length
    code, out, err = run_cli(capsys, "detect", "--config", radar_config_path, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_out_to_a_directory_is_io_error(capsys, radar_config_path, tmp_path):
    target = tmp_path / "results"
    target.mkdir()
    code, _, err = run_cli(capsys, "detect", "--config", radar_config_path, "--out", str(target))
    assert code == 4
    assert err.startswith("i/o error: ")
    assert repr(str(target)) in err


def test_emit_cuts_a_shorter_rewrite_at_its_byte_length(tmp_path):
    # each "ж" is two UTF-8 bytes: a cut at the character count would keep
    # half of the first text's tail
    target = tmp_path / "out.txt"
    cli._emit("ж" * 50, str(target))
    cli._emit("ж" * 10, str(target))
    assert target.read_bytes() == ("ж" * 10).encode("utf-8")


def test_negative_seed_is_validation_error(capsys, radar_config_path):
    code, _, err = run_cli(capsys, "verify", "--config", radar_config_path, "--seed", "-1")
    assert code == 2
    assert "--seed" in err


UNREAD_FLAGS = [
    ("detect", "--seed", "1"),
    ("attack", "--seed", "1"),
    ("roc", "--seed", "1"),
    ("photon-sweep", "--seed", "1"),
    ("detect", "--lambda", "1"),
    ("verify", "--lambda", "1"),
    ("roc", "--tau", "5"),
    ("verify", "--tau", "5"),
    ("verify", "--format", "csv"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS, ids=[f"{c}-{f}" for c, f, _ in UNREAD_FLAGS])
def test_subcommand_refuses_flags_it_does_not_read(capsys, radar_config_path, command, flag, value):
    # e.g. roc draws its thresholds from the grid, so a --tau would be
    # silently ignored: the parser refuses it with usage, like a missing --config
    with pytest.raises(SystemExit) as usage:
        cli.main([command, "--config", radar_config_path, flag, value])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_out_dir_env_resolves_relative_paths(capsys, radar_config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "detect", "--config", radar_config_path, "--out", "point.json")
    assert code == 0
    assert (tmp_path / "point.json").exists()
    assert not os.path.exists("point.json")


def test_out_dir_env_keeps_absolute_paths(capsys, radar_config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "elsewhere"))
    target = tmp_path / "abs.json"
    code, _, _ = run_cli(capsys, "detect", "--config", radar_config_path, "--out", str(target))
    assert code == 0
    assert target.exists()
