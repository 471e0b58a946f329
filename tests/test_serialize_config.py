"""Matrix literals, CSV/JSON rendering, and scenario config parsing."""

import json
import math
import sys

import pytest

from qspoof import RadarParams, cli
from qspoof.config import ConfigError, entry_from_literal, load_config, matrix_from_literal, parse_config
from qspoof.serialize import (
    csv_text,
    json_text,
    matrix_to_literal,
    photon_csv,
    roc_csv,
    sig12,
)


def radar_config(**extra):
    cfg = {"radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5}}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------- literals

def test_entry_parses_real_and_pair():
    assert entry_from_literal(1.5, "x") == 1.5 + 0j
    assert entry_from_literal([1.0, -2.0], "x") == 1.0 - 2.0j


def test_entry_rejects_bool_and_nan():
    with pytest.raises(ValueError, match="x"):
        entry_from_literal(True, "x")
    with pytest.raises(ValueError):
        entry_from_literal(math.nan, "x")
    with pytest.raises(ValueError):
        entry_from_literal("1.0", "x")


def test_matrix_literal_roundtrip_real():
    lit = [[0.6, 0.0], [0.0, 0.4]]
    m = matrix_from_literal(lit)
    assert matrix_to_literal(m) == lit


def test_matrix_literal_roundtrip_complex():
    lit = [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]
    m = matrix_from_literal(lit)
    assert m[0, 1] == -0.5j
    assert matrix_to_literal(m) == lit


def test_matrix_literal_error_names_entry():
    with pytest.raises(ValueError, match=r"m\[1\]\[0\]"):
        matrix_from_literal([[1.0, 0.0], ["bad", 0.0]], "m")
    with pytest.raises(ValueError, match="row 0"):
        matrix_from_literal([[1.0], [0.0, 1.0]], "m")


# ---------------------------------------------------------------- rendering

def test_sig12_format():
    assert sig12(0.9) == "9.00000000000e-01"
    assert sig12(0.768030683315926) == "7.68030683316e-01"
    assert len(sig12(1 / 3).split("e")[0]) == 13  # sign digit dot 11 decimals


def test_csv_text_lf_only_and_trailing_newline():
    text = csv_text(["a", "b"], [["1", "2"]])
    assert text == "a,b\n1,2\n"
    assert "\r" not in text


def test_roc_csv_header_and_empty_lambda_cell():
    from qspoof import roc_sweep

    curves = roc_sweep(RadarParams(n_b=0.4, x=0.9, k=1, l=2), lambdas=[1.0], tau_grid=[1.0])
    text = roc_csv(curves)
    lines = text.splitlines()
    assert lines[0] == "lambda,tau,p_false,p_detect,genuine_p_false,genuine_p_detect"
    assert lines[1].startswith(",")  # undistorted row has no lambda
    assert lines[2].startswith("1.00000000000e+00,")
    assert len(lines) == 3


def test_photon_csv_header_and_integer_l():
    from qspoof import photon_sweep

    rows = photon_sweep(
        RadarParams(n_b=0.4, x=0.9, k=1, l=2), l_values=[2], lambdas=[1.0], tau=1.0
    )
    text = photon_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "l,mean_photon,lambda,p_detect,genuine_p_detect"
    assert lines[1].split(",")[0] == "2"


def test_json_text_deterministic():
    a = json_text({"b": 1, "a": [1.0, 2.0]})
    b = json_text({"a": [1.0, 2.0], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [1.0, 2.0], "b": 1}


def test_json_text_rejects_nan():
    with pytest.raises(ValueError):
        json_text({"x": math.nan})


# ---------------------------------------------------------------- config

def test_parse_radar_config_defaults():
    cfg = parse_config(radar_config())
    pair = cfg.build_pair()
    assert pair.rho0.dim == 3
    assert cfg.seed == 0
    assert cfg.out_format is None  # subcommands pick their own default
    assert cfg.effective_tau() == 1.0


def test_parse_explicit_states_config():
    cfg = parse_config(
        {
            "explicit": {
                "rho0": [[0.5, 0.0], [0.0, 0.5]],
                "rho1": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
                "c0": 0.5,
                "c1": 0.5,
            },
        }
    )
    pair = cfg.build_pair()
    assert pair.rho1.matrix[0, 1] == -0.5j


def test_parse_rejects_both_scenarios():
    cfg = radar_config(
        explicit={"rho0": [[1.0]], "rho1": [[1.0]], "c0": 0.5, "c1": 0.5}
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(cfg)


def test_parse_rejects_missing_scenario():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({})


def test_parse_rejects_unknown_fields():
    cfg = radar_config()
    cfg["radar"]["n_bb"] = 0.1
    with pytest.raises(ConfigError, match="n_bb"):
        parse_config(cfg)
    with pytest.raises(ConfigError, match="surplus"):
        parse_config(radar_config(surplus=1))


def test_parse_rejects_bad_priors():
    cfg = radar_config()
    cfg["radar"]["c1"] = 0.6
    with pytest.raises(ConfigError, match="c"):
        parse_config(cfg)


def test_parse_rejects_nonpositive_lambda():
    with pytest.raises(ConfigError, match=r"lambdas\[1\]"):
        parse_config(radar_config(attack={"lambdas": [1.0, 0.0]}))


def test_parse_rejects_a_price_whose_reciprocal_overflows():
    with pytest.raises(ConfigError, match=r"^attack\.lambdas\[1\]: .*finite reciprocal 1/lam, got 1e-309$"):
        parse_config(radar_config(attack={"lambdas": [1.0, 1e-309]}))
    assert parse_config(radar_config(attack={"lambdas": [1e-308]})).lambdas == (1e-308,)


def test_parse_rejects_bad_tau_grid():
    with pytest.raises(ConfigError, match="tau_grid"):
        parse_config(radar_config(sweep={"tau_grid": [2.0, 1.0]}))
    with pytest.raises(ConfigError, match="tau_grid"):
        parse_config(radar_config(sweep={"tau_grid": [-1.0]}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "extra,field",
    [
        ({"radar": {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 1e-320, "c1": 1.0}}, "radar.c0"),
        ({"sweep": {"tau": sys.float_info.max}}, "sweep.tau"),
        ({"sweep": {"tau_grid": [1.0, sys.float_info.max]}}, "sweep.tau_grid[1]"),
    ],
    ids=["c0", "tau", "tau_grid"],
)
def test_parse_rejects_an_overflowing_threshold(extra, field):
    # c1/c0 overflows to inf: for a tiny c0, and for a tau whose c0 = 1/(1+tau) is subnormal
    with pytest.raises(ConfigError, match=r"threshold c1/c0 must be finite") as err:
        parse_config(radar_config(**extra))
    assert err.value.field == field


def test_parse_rejects_bool_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(radar_config(seed=True))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(radar_config(seed=-1))


def test_parse_rejects_bad_format():
    with pytest.raises(ConfigError, match="format"):
        parse_config(radar_config(output={"format": "xml"}))


def test_parse_sweep_tau_overrides_priors():
    cfg = parse_config(radar_config(sweep={"tau": 3.0}))
    assert cfg.effective_tau() == 3.0


def test_parse_non_psd_explicit_matrix_names_field():
    with pytest.raises(ConfigError, match="rho0") as err:
        parse_config(
            {
                "explicit": {
                    "rho0": [[1.5, 0.0], [0.0, -0.5]],
                    "rho1": [[0.5, 0.0], [0.0, 0.5]],
                    "c0": 0.5,
                    "c1": 0.5,
                },
            }
        )
    assert "eigenvalue" in str(err.value)


def test_parse_verify_block():
    cfg = parse_config(
        radar_config(verify={"instances": 5, "max_dim": 3, "lambdas": [1.0], "commuting_only": True})
    )
    assert cfg.verify.instances == 5
    assert cfg.verify.commuting_only


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"scenario": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(p))


def test_load_config_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.json"))


def test_effective_l_values_default_window():
    cfg = parse_config(radar_config())
    # covers 0..k..l plus headroom above the signal level
    values = list(cfg.effective_l_values())
    assert values[0] == 0
    assert len(values) >= 6
    assert values == sorted(set(values))


# ---------------------------------------------------------------- rejections

DROP = object()


def radar_block(**fields):
    block = {"n_b": 0.4, "x": 0.9, "k": 1, "l": 2, "c0": 0.5, "c1": 0.5, **fields}
    return {"radar": {k: v for k, v in block.items() if v is not DROP}}


def explicit_block(**fields):
    block = {"rho0": [[0.5, 0.0], [0.0, 0.5]], "rho1": [[1.0, 0.0], [0.0, 0.0]], "c0": 0.5, "c1": 0.5, **fields}
    return {"explicit": {k: v for k, v in block.items() if v is not DROP}}


def rejected(field, cfg, why):
    return pytest.param(cfg, field, id=f"{field}-{why}")


REJECTIONS = [
    # root and scenario choice
    rejected("<root>", [1.0], "not-an-object"),
    rejected("surplus", radar_config(surplus=1), "unknown"),
    rejected("explicit|radar", {}, "neither"),
    rejected("explicit|radar", {**radar_block(), **explicit_block()}, "both"),
    # each block: not an object, unknown key, missing key
    rejected("explicit", {"explicit": [1.0]}, "not-an-object"),
    rejected("radar", {"radar": 3}, "not-an-object"),
    rejected("attack", radar_config(attack=[1.0]), "not-an-object"),
    rejected("sweep", radar_config(sweep=None), "not-an-object"),
    rejected("output", radar_config(output="out.csv"), "not-an-object"),
    rejected("verify", radar_config(verify=1), "not-an-object"),
    rejected("explicit.zz", explicit_block(zz=1), "unknown"),
    rejected("radar.zz", radar_block(zz=1), "unknown"),
    rejected("sweep.zz", radar_config(sweep={"zz": 1}), "unknown"),
    rejected("output.zz", radar_config(output={"zz": 1}), "unknown"),
    rejected("verify.zz", radar_config(verify={"zz": 1}), "unknown"),
    *[rejected(f"explicit.{k}", explicit_block(**{k: DROP}), "missing") for k in ("rho0", "rho1", "c0", "c1")],
    *[rejected(f"radar.{k}", radar_block(**{k: DROP}), "missing") for k in ("n_b", "x", "k", "l", "c0", "c1")],
    rejected("attack.lambdas", radar_config(attack={}), "missing"),
    # real numbers
    rejected("radar.n_b", radar_block(n_b="0.4"), "string"),
    rejected("radar.x", radar_block(x=True), "bool"),
    rejected("explicit.c1", explicit_block(c1=None), "null"),
    rejected("radar", radar_block(n_b=1.5), "out-of-range"),
    # nonnegative integers
    rejected("radar.k", radar_block(k=-1), "negative"),
    rejected("radar.l", radar_block(l=1.5), "fractional"),
    rejected("seed", radar_config(seed=True), "bool"),
    rejected("seed", radar_config(seed=-1), "negative"),
    rejected("verify.instances", radar_config(verify={"instances": -1}), "negative"),
    rejected("verify.channel_instances", radar_config(verify={"channel_instances": "3"}), "string"),
    rejected("verify.max_dim", radar_config(verify={"max_dim": 1}), "below-two"),
    rejected("verify.max_dim", radar_config(verify={"max_dim": 2.5}), "fractional"),
    # positive prices and thresholds
    rejected("attack.lambdas[1]", radar_config(attack={"lambdas": [1.0, 0.0]}), "zero"),
    rejected("attack.lambdas[0]", radar_config(attack={"lambdas": ["1"]}), "string"),
    rejected("verify.lambdas[0]", radar_config(verify={"lambdas": [-2.0]}), "negative"),
    rejected("sweep.tau", radar_config(sweep={"tau": 0}), "zero"),
    rejected("sweep.tau", radar_config(sweep={"tau": "1"}), "string"),
    rejected("sweep.tau_grid[0]", radar_config(sweep={"tau_grid": [-1.0]}), "negative"),
    rejected("sweep.tau_grid", radar_config(sweep={"tau_grid": [2.0, 1.0]}), "decreasing"),
    # lists
    rejected("attack.lambdas", radar_config(attack={"lambdas": []}), "empty"),
    rejected("attack.lambdas", radar_config(attack={"lambdas": 1.0}), "scalar"),
    rejected("verify.lambdas", radar_config(verify={"lambdas": []}), "empty"),
    rejected("sweep.tau_grid", radar_config(sweep={"tau_grid": []}), "empty"),
    rejected("sweep.l_values", radar_config(sweep={"l_values": "0,1"}), "string"),
    rejected("sweep.l_values[1]", radar_config(sweep={"l_values": [0, -1]}), "negative"),
    # other values
    rejected("verify.commuting_only", radar_config(verify={"commuting_only": 1}), "not-bool"),
    rejected("output.path", radar_config(output={"path": ""}), "empty"),
    rejected("output.path", radar_config(output={"path": 3}), "not-string"),
    rejected("output.format", radar_config(output={"format": "xml"}), "unknown"),
    # cost weights
    rejected("radar.c0", radar_block(c0=-0.1, c1=1.1), "negative"),
    rejected("radar.c0", radar_block(c0=0.5, c1=0.6), "sum"),
    rejected("radar.c0", radar_block(c0=0.0, c1=1.0), "zero-c0"),
    rejected("explicit.c0", explicit_block(c0=0.3, c1=0.3), "sum"),
    rejected("explicit.c0", explicit_block(c0=0, c1=1), "zero-c0"),
    # explicit matrices
    rejected("explicit.rho0", explicit_block(rho0="diag"), "not-a-literal"),
    rejected("explicit.rho0", explicit_block(rho0=[[1.0], [0.0, 1.0]]), "ragged"),
    rejected("explicit.rho1[0][1]", explicit_block(rho1=[[1.0, "x"], [0.0, 0.0]]), "bad-entry"),
    rejected("explicit.rho0", explicit_block(rho0=[[1.5, 0.0], [0.0, -0.5]]), "not-psd"),
    rejected("explicit.rho1", explicit_block(rho1=[[0.5, 0.4], [0.0, 0.5]]), "not-hermitian"),
    rejected("explicit.rho1", explicit_block(rho1=[[0.5, 0.0], [0.0, 0.4]]), "trace"),
    rejected("explicit", explicit_block(rho1=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), "dimension"),
    # accepted before numbers had to be finite and the attack block was walked like the others
    rejected("attack.lambdas[0]", radar_config(attack={"lambdas": [math.nan]}), "nan"),
    rejected("verify.lambdas[1]", radar_config(verify={"lambdas": [1.0, math.inf]}), "inf"),
    rejected("sweep.tau", radar_config(sweep={"tau": math.nan}), "nan"),
    rejected("sweep.tau_grid[1]", radar_config(sweep={"tau_grid": [1.0, math.inf]}), "inf"),
    rejected("radar.c0", radar_block(c0=math.nan), "nan"),
    rejected("attack.zz", radar_config(attack={"lambdas": [1.0], "zz": 1}), "unknown"),
    # rejected before, under the block's name or another field, or by an uncaught OverflowError
    rejected("radar.n_b", radar_block(n_b=math.nan), "nan"),
    rejected("explicit.c1", explicit_block(c1=-math.inf), "-inf"),
    rejected("radar.x", radar_block(x=10**400), "beyond-float-range"),
    # literal entries were named after their matrix and then again after the entry
    rejected("explicit.rho0[1][1]", explicit_block(rho0=[[0.5, 0.0], [0.0, [0.5, math.nan]]]), "nan-imag"),
    rejected("explicit.rho0[0][0]", explicit_block(rho0=[[math.inf, 0.0], [0.0, 0.5]]), "inf-entry"),
]


@pytest.mark.parametrize("cfg,field", REJECTIONS)
def test_config_rejection_names_field(tmp_path, capsys, cfg, field):
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == field
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["detect", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.err.count(f"{field}: ") == 1


FLAG_REJECTIONS = [
    pytest.param(["verify", "--seed", "-1"], "--seed", id="seed-negative"),
    pytest.param(["attack", "--lambda", "1", "--lambda", "0"], "--lambda", id="lambda-zero"),
    pytest.param(["detect", "--tau", "0"], "--tau", id="tau-zero"),
    pytest.param(["detect", "--tau", "-2"], "--tau", id="tau-negative"),
    # non-finite values were passed on to the numerics before
    pytest.param(["attack", "--lambda", "nan"], "--lambda", id="lambda-nan"),
    pytest.param(["attack", "--lambda", "inf", "--format", "json"], "--lambda", id="lambda-inf-json"),
    pytest.param(["attack", "--lambda", "inf", "--format", "csv"], "--lambda", id="lambda-inf-csv"),
    pytest.param(["detect", "--tau", "nan"], "--tau", id="tau-nan"),
    pytest.param(["detect", "--tau", "inf"], "--tau", id="tau-inf"),
    # an empty path failed as an i/o error (exit 4) before
    pytest.param(["detect", "--out", ""], "--out", id="out-empty"),
]


@pytest.mark.parametrize("argv,field", FLAG_REJECTIONS)
def test_flag_rejection_names_field(tmp_path, capsys, argv, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(radar_config()), encoding="utf-8")
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
