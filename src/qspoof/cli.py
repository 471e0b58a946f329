"""Command-line front end.

Subcommands: ``detect``, ``attack``, ``roc``, ``photon-sweep``, ``verify``.
Scenarios come from a JSON config (see ``config``); the scalar flags
``--lambda``, ``--tau``, ``--seed``, ``--out`` and ``--format`` override
the matching config fields.  Outputs are deterministic: identical config
and seed give byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 verification failure,
4 I/O failure.  The environment variable ``QSPOOF_OUT_DIR``, when set,
resolves relative output paths inside that directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .adversary import BoundReport, optimal_attack
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config
from .detection import helstrom_measurement
from .radar import photon_sweep, roc_sweep
from .serialize import csv_text, json_text, matrix_to_literal, photon_csv, roc_csv, sig12
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4

OUT_DIR_ENV = "QSPOOF_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspoof",
        description="Binary quantum state detection under adversarial distortion.",
    )
    parser.add_argument("--version", action="version", version=f"qspoof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True):
        p.add_argument("--config", metavar="PATH", required=config_required, help="scenario JSON file")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument(
            "--lambda",
            dest="lambdas",
            metavar="LAM",
            type=float,
            action="append",
            help="distortion price; repeat for several",
        )
        p.add_argument("--tau", type=float, help="detector threshold override")

    common(sub.add_parser("detect", help="risk-optimal measurement and operating rates"))
    common(sub.add_parser("attack", help="closed-form distortion per price with bound flags"))
    common(sub.add_parser("roc", help="operating characteristic sweep over thresholds"))
    common(sub.add_parser("photon-sweep", help="detection rates across signal photon levels"))
    common(sub.add_parser("verify", help="self-verification over random instances"), config_required=False)
    return parser


# One parser per process: building it costs more than parsing with it, and
# parse_args leaves no state behind (each call fills a fresh namespace).
_PARSER = build_parser()


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None) -> None:
    target = _resolve_out(path)
    if target is None:
        sys.stdout.write(text)
        return
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_detect(cfg: ScenarioConfig) -> int:
    pair = cfg.build_pair()
    hel = helstrom_measurement(pair)
    if (cfg.out_format or "json") == "json":
        payload = {
            "tau": pair.tau,
            "spectrum": [float(v) for v in hel.eigenvalues],
            "projector": matrix_to_literal(hel.pi1.matrix),
            "rank": hel.pi1.rank,
            "p_detect": hel.p_detect,
            "p_false": hel.p_false,
            "bayes_risk": hel.bayes_risk,
        }
        _emit(json_text(payload), cfg.out_path)
    else:
        header = ["tau", "rank", "p_detect", "p_false", "bayes_risk"]
        row = [sig12(pair.tau), str(hel.pi1.rank), sig12(hel.p_detect), sig12(hel.p_false), sig12(hel.bayes_risk)]
        _emit(csv_text(header, [row]), cfg.out_path)
    return EXIT_OK


def cmd_attack(cfg: ScenarioConfig) -> int:
    if not cfg.lambdas:
        raise ConfigError("attack.lambdas", "at least one distortion price is required (or pass --lambda)")
    pair = cfg.build_pair()
    hel = helstrom_measurement(pair)
    records = []
    for lam in cfg.lambdas:
        sol = optimal_attack(pair, hel.pi1, lam)
        report = BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, lam)
        records.append((sol, report))
    if (cfg.out_format or "json") == "json":
        payload = {
            "tau": pair.tau,
            "p_detect": hel.p_detect,
            "p_false": hel.p_false,
            "solutions": [
                {
                    "lambda": sol.lam,
                    "z1": sol.z1,
                    "rho1_prime": matrix_to_literal(sol.rho1_prime.matrix),
                    "genuine_p_detect": sol.genuine_p_detect,
                    "genuine_p_false": sol.genuine_p_false,
                    "utility": sol.utility,
                    "bounds": {
                        "lower": rep.lower,
                        "upper": rep.upper,
                        "lower_satisfied": rep.lower_satisfied,
                        "upper_satisfied": rep.upper_satisfied,
                    },
                }
                for sol, rep in records
            ],
        }
        _emit(json_text(payload), cfg.out_path)
    else:
        header = [
            "lambda",
            "z1",
            "p_detect",
            "genuine_p_detect",
            "genuine_p_false",
            "lower",
            "upper",
            "lower_satisfied",
            "upper_satisfied",
        ]
        rows = [
            [
                sig12(sol.lam),
                sig12(sol.z1),
                sig12(rep.p_detect),
                sig12(rep.genuine_p_detect),
                sig12(sol.genuine_p_false),
                sig12(rep.lower),
                sig12(rep.upper),
                str(rep.lower_satisfied).lower(),
                str(rep.upper_satisfied).lower(),
            ]
            for sol, rep in records
        ]
        _emit(csv_text(header, rows), cfg.out_path)
    return EXIT_OK


def cmd_roc(cfg: ScenarioConfig) -> int:
    if cfg.radar is None:
        raise ConfigError("radar", "roc sweeps need a radar scenario block")
    curves = roc_sweep(cfg.radar, cfg.lambdas, cfg.tau_grid)
    if (cfg.out_format or "csv") == "csv":
        _emit(roc_csv(curves), cfg.out_path)
    else:
        payload = [
            {
                "lambda": c.lam,
                "points": [
                    {
                        "tau": p.tau,
                        "p_false": p.p_false,
                        "p_detect": p.p_detect,
                        "genuine_p_false": p.genuine_p_false,
                        "genuine_p_detect": p.genuine_p_detect,
                    }
                    for p in c.points
                ],
            }
            for c in curves
        ]
        _emit(json_text(payload), cfg.out_path)
    return EXIT_OK


def cmd_photon_sweep(cfg: ScenarioConfig) -> int:
    if cfg.radar is None:
        raise ConfigError("radar", "photon sweeps need a radar scenario block")
    if not cfg.lambdas:
        raise ConfigError("attack.lambdas", "at least one distortion price is required (or pass --lambda)")
    rows = photon_sweep(cfg.radar, cfg.effective_l_values(), cfg.lambdas, cfg.effective_tau())
    if (cfg.out_format or "csv") == "csv":
        _emit(photon_csv(rows), cfg.out_path)
    else:
        payload = [
            {
                "l": r.l,
                "mean_photon": r.mean_photon,
                "lambda": r.lam,
                "p_detect": r.p_detect,
                "genuine_p_detect": r.genuine_p_detect,
            }
            for r in rows
        ]
        _emit(json_text(payload), cfg.out_path)
    return EXIT_OK


def cmd_verify(cfg: ScenarioConfig) -> int:
    report = run_verification(seed=cfg.seed, options=cfg.verify)
    _emit(json_text(report.to_dict()), cfg.out_path)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ScenarioConfig(radar=None, explicit=None)
        cfg = apply_overrides(cfg, args)
        handler = {
            "detect": cmd_detect,
            "attack": cmd_attack,
            "roc": cmd_roc,
            "photon-sweep": cmd_photon_sweep,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
