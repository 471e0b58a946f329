"""Scenario configuration: JSON schema and validation.

A scenario names its hypothesis pair either explicitly (matrix literals
plus cost weights) or through radar parameters.  Grids, seeds and output
destinations have defaults; physics parameters never default silently.

Each rule for input from outside the program is written once.  Config
states the rules of shape (blocks, unknown and missing fields, literals,
finite numbers, counts, booleans, paths, formats) and calls the library's
for the rest: ``_check_price``, ``_check_thresholds``, ``check_cost_weights``,
``DensityOperator``, ``RadarParams``.  The flags share their fields'
parsers, ``VerifyOptions`` runs the ``verify`` block's, and every
rejection names its field or flag.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import _check_price
from .detection import HypothesisPair, _check_thresholds, check_cost_weights
from .operators import DensityOperator
from .radar import RadarParams, build_radar_pair


class ConfigError(ValueError):
    """Configuration rejected; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


DEFAULT_VERIFY_LAMBDAS = (0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class VerifyOptions:
    """Options of the ``verify`` battery, each stored as its ``verify`` field's parser returns it."""

    instances: int = 50
    max_dim: int = 6
    lambdas: tuple = DEFAULT_VERIFY_LAMBDAS
    commuting_only: bool = False
    channel_instances: int = 50

    def __post_init__(self):
        for name, parse in _VERIFY.items():
            object.__setattr__(self, name, parse(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated scenario: exactly one of ``explicit`` or ``radar`` is set."""

    explicit: HypothesisPair | None = None
    radar: RadarParams | None = None
    c0: float | None = None
    c1: float | None = None
    lambdas: tuple = ()
    tau: float | None = None
    tau_grid: tuple | None = None
    l_values: tuple | None = None
    out_path: str | None = None
    out_format: str | None = None
    seed: int = 0
    verify: VerifyOptions = field(default_factory=VerifyOptions)

    def build_pair(self) -> HypothesisPair:
        """The scenario's pair; a ``sweep.tau`` or ``--tau`` threshold replaces its cost weights."""
        pair = self.explicit if self.explicit is not None else build_radar_pair(self.radar, self.c0, self.c1)
        if self.tau is not None:
            pair = HypothesisPair.from_tau(pair.rho0, pair.rho1, self.tau)
        return pair

    def effective_tau(self) -> float:
        """Sweep threshold: explicit ``sweep.tau`` wins, else c1/c0 of the cost weights."""
        if self.tau is not None:
            return self.tau
        return check_cost_weights(self.c0, self.c1)[2]

    def effective_l_values(self) -> tuple:
        if self.l_values is not None:
            return self.l_values
        if self.radar is None:
            raise ConfigError("sweep.l_values", "required for an explicit-pair scenario")
        return tuple(range(0, max(self.radar.k, self.radar.l) + 4))


def _fields(obj, where: str, parsers: dict, required=()) -> dict:
    """Parse an object with no unknown or missing field, each value through its parser."""
    if not isinstance(obj, dict):
        raise ConfigError(where, "must be an object")
    for key in obj:
        if key not in parsers:
            raise ConfigError(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}", "missing required field")
    return {key: parse(obj[key], f"{where}.{key}") for key, parse in parsers.items() if key in obj}


def _named(where: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a ValueError it raises turned into a ConfigError naming ``where``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _real(value, where: str) -> float:
    # abs(value) <= max also rejects NaN, the infinities and integers beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return float(value)


def _price(value, where: str) -> float:
    return _named(where, _check_price, value)


def _tau(value, where: str) -> float:
    return _named(where, _check_thresholds, [value])[0][0]


def _nonneg_int(value, where: str) -> int:
    # int is Integral; naming it first skips the slower ABC check for it
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < 0:
        raise ConfigError(where, f"expected a nonnegative integer, got {value!r}")
    return int(value)


def _list(value, where: str, item) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(where, "expected a nonempty list")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _prices(value, where: str) -> tuple:
    return _list(value, where, _price)


def _tau_grid(value, where: str) -> tuple:
    # the rule runs once over the grid; a refusal names the first entry refused alone, else the grid
    entries = _list(value, where, lambda v, _: v)
    try:
        return tuple(_check_thresholds(entries)[0])
    except ValueError as exc:
        _list(entries, where, _tau)
        raise ConfigError(where, str(exc)) from exc


def _l_values(value, where: str) -> tuple:
    return _list(value, where, _nonneg_int)


def _max_dim(value, where: str) -> int:
    dim = _nonneg_int(value, where)
    if dim < 2:
        raise ConfigError(where, "must be at least 2")
    return dim


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(where, "expected true or false")
    return value


def _path(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(where, "expected a nonempty string")
    return value


def _format(value, where: str) -> str:
    if value not in ("csv", "json"):
        raise ConfigError(where, f"expected 'csv' or 'json', got {value!r}")
    return value


def entry_from_literal(obj, where: str) -> complex:
    """A matrix literal entry: a real number or an ``[re, im]`` pair, each part finite."""
    parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else (obj, 0.0)
    try:
        return complex(*(_real(v, where) for v in parts))
    except ConfigError:
        raise ConfigError(where, f"expected a finite real number or [re, im] pair, got {obj!r}") from None


def matrix_from_literal(obj, where: str = "matrix") -> np.ndarray:
    """Parse a nested row-major literal into a square complex matrix."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(where, "expected a nonempty list of rows")
    d = len(obj)
    out = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ConfigError(where, f"row {i} must be a list of {d} entries")
        for j, entry in enumerate(row):
            out[i, j] = entry_from_literal(entry, f"{where}[{i}][{j}]")
    return out


def _state(value, where: str) -> DensityOperator:
    return _named(where, DensityOperator, matrix_from_literal(value, where))


# Each block's parser per field, in the order the fields are checked.  Field
# names are the keywords they fill: HypothesisPair, RadarParams, the sweep
# fields of ScenarioConfig and VerifyOptions.
_EXPLICIT = {"c0": _real, "c1": _real, "rho0": _state, "rho1": _state}
_RADAR = {"c0": _real, "c1": _real, "n_b": _real, "x": _real, "k": _nonneg_int, "l": _nonneg_int}
_ATTACK = {"lambdas": _prices}
_SWEEP = {"tau": _tau, "tau_grid": _tau_grid, "l_values": _l_values}
_OUTPUT = {"path": _path, "format": _format}
_VERIFY = {
    "instances": _nonneg_int,
    "max_dim": _max_dim,
    "lambdas": _prices,
    "commuting_only": _flag,
    "channel_instances": _nonneg_int,
}
_ROOT = {"explicit", "radar", "attack", "sweep", "output", "seed", "verify"}


def parse_config(obj: dict) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    for key in obj:
        if key not in _ROOT:
            raise ConfigError(key, "unknown field")
    if ("explicit" in obj) == ("radar" in obj):
        raise ConfigError("explicit|radar", "exactly one scenario block is required")

    explicit = None
    radar = None
    if "explicit" in obj:
        fields = _fields(obj["explicit"], "explicit", _EXPLICIT, required=_EXPLICIT)
        c0, c1 = fields["c0"], fields["c1"]
        _named("explicit.c0", check_cost_weights, c0, c1)
        explicit = _named("explicit", HypothesisPair, **fields)
    else:
        fields = _fields(obj["radar"], "radar", _RADAR, required=_RADAR)
        c0, c1 = fields.pop("c0"), fields.pop("c1")
        _named("radar.c0", check_cost_weights, c0, c1)
        radar = _named("radar", RadarParams, **fields)

    lambdas: tuple = ()
    if "attack" in obj:
        lambdas = _fields(obj["attack"], "attack", _ATTACK, required=_ATTACK)["lambdas"]
    sweep = _fields(obj.get("sweep", {}), "sweep", _SWEEP)
    output = _fields(obj.get("output", {}), "output", _OUTPUT)
    seed = _nonneg_int(obj["seed"], "seed") if "seed" in obj else 0
    verify = VerifyOptions(**_fields(obj.get("verify", {}), "verify", _VERIFY))

    return ScenarioConfig(
        explicit=explicit,
        radar=radar,
        c0=c0,
        c1=c1,
        lambdas=lambdas,
        **sweep,
        out_path=output.get("path"),
        out_format=output.get("format"),
        seed=seed,
        verify=verify,
    )


def apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """Override config fields with the parsed command line's flags, under the fields' rules."""
    updates = {}
    if args.seed is not None:
        updates["seed"] = _nonneg_int(args.seed, "--seed")
    if args.lambdas:
        updates["lambdas"] = tuple(_price(v, "--lambda") for v in args.lambdas)
    if args.tau is not None:
        updates["tau"] = _tau(args.tau, "--tau")
    if args.out is not None:
        updates["out_path"] = _path(args.out, "--out")
    if args.format is not None:
        updates["out_format"] = args.format
    return replace(cfg, **updates) if updates else cfg


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file.

    OSError (unreadable path) propagates to the caller as an I/O failure;
    malformed JSON or schema violations raise ConfigError with the line or
    field that caused the rejection.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_config(obj)
