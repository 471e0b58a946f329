"""Command-line front end.

Subcommands: ``detect``, ``attack``, ``roc``, ``photon-sweep``, ``verify``.
Scenarios come from a JSON config (see ``config``); the scalar flags
``--lambda``, ``--tau``, ``--seed``, ``--out`` and ``--format`` override
the matching config fields.  Each subcommand takes only the flags it
reads (``_COMMANDS``); any other exits 2 with usage.  Each output row is
built once, as a dict of values, and written either as JSON or as CSV by
the one cell rule of ``serialize.cell``; ``roc`` and ``photon-sweep``
keep their own CSV writers, and take their JSON from the ROC curves'
columns and the sweep rows' fields.  ``roc`` sweeps the scenario's pair,
radar or explicit; ``photon-sweep`` needs a radar block.  ``attack`` solves all its prices
in one stacked attack step.  Outputs are deterministic: identical config
and seed give byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 verification failure,
4 I/O failure.  The environment variable ``QSPOOF_OUT_DIR``, when set,
resolves relative output paths inside that directory.  An existing
``--out`` file is rewritten in place (the same file, permissions and
links) and cut to the new length; the write is neither atomic nor
fsynced.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import __version__
from .adversary import BoundReport, _optimal_attacks
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config
from .detection import helstrom_measurement
from .radar import photon_sweep, roc_sweep
from .serialize import fields, json_text, matrix_to_literal, photon_csv, roc_csv, rows_csv
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4

OUT_DIR_ENV = "QSPOOF_OUT_DIR"


def _emit(text: str, path: str | None) -> None:
    """Write to stdout, or to ``path`` (relative paths inside ``QSPOOF_OUT_DIR`` when set),
    rewriting an existing file in place and cutting it to the new length."""
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    # open("w") without O_TRUNC: truncating a written file and writing it
    # again makes ext4 flush it on close; cutting it to length after the
    # write does not
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _write(cfg: ScenarioConfig, default_format: str, rows, payload, csv=rows_csv) -> int:
    """Write ``csv(rows)`` or the JSON of ``payload()``, which is built from
    the same rows, as the scenario's output format asks; only that one is built."""
    _emit(csv(rows) if (cfg.out_format or default_format) == "csv" else json_text(payload()), cfg.out_path)
    return EXIT_OK


def cmd_detect(cfg: ScenarioConfig) -> int:
    pair = cfg.build_pair()
    hel = helstrom_measurement(pair)
    row = dict(tau=pair.tau, rank=hel.pi1.rank, p_detect=hel.p_detect, p_false=hel.p_false, bayes_risk=hel.bayes_risk)

    def payload():
        return {**row, "spectrum": hel.eigenvalues.tolist(), "projector": matrix_to_literal(hel.pi1.matrix)}

    return _write(cfg, "json", [row], payload)


_BOUNDS = ("lower", "upper", "lower_satisfied", "upper_satisfied")


def cmd_attack(cfg: ScenarioConfig) -> int:
    if not cfg.lambdas:
        raise ConfigError("attack.lambdas", "at least one distortion price is required (or pass --lambda)")
    pair = cfg.build_pair()
    hel = helstrom_measurement(pair)
    solutions = _optimal_attacks(pair, hel.pi1, cfg.lambdas)
    rows = []
    for sol in solutions:
        report = BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, sol.lam)
        rows.append(
            {
                "lambda": sol.lam,
                "z1": sol.z1,
                "p_detect": hel.p_detect,
                "genuine_p_detect": sol.genuine_p_detect,
                "genuine_p_false": sol.genuine_p_false,
                **{name: getattr(report, name) for name in _BOUNDS},
            }
        )

    def payload():
        # the detector's p_detect is given once, and each row's bounds nest
        return {
            "tau": pair.tau,
            "p_detect": hel.p_detect,
            "p_false": hel.p_false,
            "solutions": [
                {k: v for k, v in row.items() if k != "p_detect" and k not in _BOUNDS}
                | {"bounds": {name: row[name] for name in _BOUNDS}}
                | {"rho1_prime": matrix_to_literal(sol.rho1_prime.matrix), "utility": sol.utility}
                for row, sol in zip(rows, solutions)
            ],
        }

    return _write(cfg, "json", rows, payload)


def cmd_roc(cfg: ScenarioConfig) -> int:
    curves = roc_sweep(cfg.build_pair(), cfg.lambdas, cfg.tau_grid)

    def payload():
        # the fields of each curve's RocPoint, read from its columns (genuine P_F is P_F)
        return [
            {
                "lambda": c.lam,
                "points": [
                    {"tau": t, "p_false": f, "p_detect": d, "genuine_p_false": f, "genuine_p_detect": g}
                    for t, f, d, g in zip(c.tau, c.p_false, c.p_detect, c.genuine_p_detect)
                ],
            }
            for c in curves
        ]

    return _write(cfg, "csv", curves, payload, roc_csv)


def cmd_photon_sweep(cfg: ScenarioConfig) -> int:
    if cfg.radar is None:
        raise ConfigError("radar", "photon sweeps need a radar scenario block")
    if not cfg.lambdas:
        raise ConfigError("attack.lambdas", "at least one distortion price is required (or pass --lambda)")
    rows = photon_sweep(cfg.radar, cfg.effective_l_values(), cfg.lambdas, cfg.effective_tau())
    return _write(cfg, "csv", rows, lambda: list(map(fields, rows)), photon_csv)


def cmd_verify(cfg: ScenarioConfig) -> int:
    report = run_verification(seed=cfg.seed, options=cfg.verify)
    _emit(json_text(report.to_dict()), cfg.out_path)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


# Each subcommand, its handler, its help line and the flags it reads besides
# --config and --out; it accepts no other.
_COMMANDS = (
    ("detect", cmd_detect, "risk-optimal measurement and operating rates", "--format --tau"),
    ("attack", cmd_attack, "closed-form distortion per price with bound flags", "--format --lambda --tau"),
    ("roc", cmd_roc, "operating characteristic sweep over thresholds", "--format --lambda"),
    ("photon-sweep", cmd_photon_sweep, "detection rates across signal photon levels", "--format --lambda --tau"),
    ("verify", cmd_verify, "self-verification over random instances", "--seed"),
)
_FLAGS = {
    "--format": dict(choices=("csv", "json"), help="output format override"),
    "--seed": dict(type=int, help="seed override"),
    "--lambda": dict(
        dest="lambdas", metavar="LAM", type=float, action="append", help="distortion price; repeat for several"
    ),
    "--tau": dict(type=float, help="detector threshold override"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspoof",
        description="Binary quantum state detection under adversarial distortion.",
    )
    parser.add_argument("--version", action="version", version=f"qspoof {__version__}")
    # a flag the chosen subcommand does not take reads as unset
    parser.set_defaults(format=None, seed=None, lambdas=None, tau=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, help_line, flags in _COMMANDS:
        p = sub.add_parser(command, help=help_line)
        p.set_defaults(handler=handler)
        p.add_argument("--config", metavar="PATH", required=command != "verify", help="scenario JSON file")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# One parser per process: building it costs more than parsing with it, and
# parse_args leaves no state behind (each call fills a fresh namespace).
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ScenarioConfig(radar=None, explicit=None)
        return args.handler(apply_overrides(cfg, args))
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
