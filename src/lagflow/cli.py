"""Command-line interface.

    lagflow run <config>       execute one preset run, write artifacts
    lagflow sweep <config>     resolution sweep for the convergence presets
    lagflow check [pytest...]  run the acceptance test suite

Exit codes: 0 success, 2 configuration error, 3 solver abort, 4 acceptance
failure.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from .config import parse_config, validate_config
from .errors import ConfigError, LagflowError
from .experiments import STALL_PRESETS, run_experiment, sweep_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lagflow",
                                     description="Lagrangian gradient-flow solvers "
                                                 "with adaptive BDF2 stepping")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a flat key-value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--no-plots", action="store_true")
        p.add_argument("--strategy", type=int, choices=(1, 2), default=None)
        p.add_argument("--enforce-theory-ratio", action="store_true")

    check = sub.add_parser("check", help="run the acceptance suite (pytest)")
    check.add_argument("pytest_args", nargs="*", default=[])
    return parser


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    if args.seed is not None:
        config.seed = args.seed
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    if args.no_plots:
        config.plots = False
    if args.strategy is not None:
        config.strategy = args.strategy
    if args.enforce_theory_ratio:
        config.enforce_theory = True
    validate_config(config)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    record = run_experiment(config)
    target = Path(config.out_dir) / config.preset
    print(f"wrote {target}/steps.csv ({len(record.result.times)} accepted steps, "
          f"{record.result.total_rejections} rejections)")
    for key, value in record.extras.items():
        print(f"{key}: {value}")
    if record.aborted:
        print(f"run stopped early: {record.result.abort_reason}")
        if config.preset not in STALL_PRESETS:
            return EXIT_SOLVER
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    tables = sweep_experiment(config)
    for mode, table in tables.items():
        orders = ", ".join(f"{o:.4f}" for o in table["orders_x"])
        print(f"{config.preset} [{mode}]: trajectory errors "
              f"{['%.3e' % e for e in table['errors_x']]} orders [{orders}]")
    return EXIT_OK


def _cmd_check(args) -> int:
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "test_acceptance.py"
        if candidate.exists():
            break
    else:
        print("acceptance suite not found; run from the repository", file=sys.stderr)
        return EXIT_CHECK
    cmd = [sys.executable, "-m", "pytest", str(candidate), "-v"] + list(args.pytest_args)
    rc = subprocess.call(cmd)
    return EXIT_OK if rc == 0 else EXIT_CHECK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LagflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
