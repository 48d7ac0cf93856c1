"""Command line front end: run, compare, plot-data, validate.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .report import IncompatibleRunsError, compare_runs, emit_plot_data, GROUPINGS
from .scenario import (
    ScenarioConfig,
    default_scenario,
    load_scenario,
    validate_scenario,
)
from . import report

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load(args) -> ScenarioConfig:
    if args.scenario is None:
        return default_scenario()
    return load_scenario(args.scenario)


def _apply_overrides(sc: ScenarioConfig, args) -> ScenarioConfig:
    plant = sc.plant
    impair = sc.impairment
    if args.tau is not None:
        plant = replace(plant, tau_s=args.tau)
    if args.loss is not None:
        impair = replace(impair, loss_probability=args.loss)
    if args.latency_ms is not None:
        impair = replace(impair, latency_ms=args.latency_ms)
    return replace(sc, plant=plant, impairment=impair)


def _cmd_run(args) -> int:
    try:
        sc = _apply_overrides(_load(args), args)
    except Exception as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        out = report.run_scenario(sc, args.out, mode=args.mode, seed=args.seed,
                                  algorithm=args.algorithm, realtime=args.realtime)
    except report.ScenarioValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print((out / "summary.txt").read_text(), end="")
    print(f"artifacts written to {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        print(compare_runs(args.run_a, args.run_b), end="")
    except IncompatibleRunsError as exc:
        print(f"runs are incompatible: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    try:
        path = emit_plot_data(args.run, args.group, args.out)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"plot data extraction failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        sc = _load(args)
    except Exception as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    checked = validate_scenario(sc)
    print(checked)
    return EXIT_OK if checked.ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadshed",
        description="Shipboard load shedding testbed: plant, UDP link, controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write run artifacts")
    run.add_argument("--scenario", type=Path, default=None,
                     help="scenario JSON (default: the bundled MPGM2-trip study)")
    run.add_argument("--algorithm", choices=["baseline", "advanced"], default=None,
                     help="override the scenario's controller algorithm")
    run.add_argument("--mode", choices=["lockstep", "networked"], default="lockstep")
    run.add_argument("--seed", type=int, default=None, help="impairment seed override")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.add_argument("--tau", type=float, default=None,
                     help="actuator lag time constant override, seconds")
    run.add_argument("--loss", type=float, default=None,
                     help="datagram loss probability override")
    run.add_argument("--latency-ms", type=float, default=None,
                     help="fixed link latency override, milliseconds")
    run.add_argument("--realtime", action="store_true",
                     help="pace networked mode at the real control period")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="side-by-side table for two run.csv files")
    comp.add_argument("run_a", type=Path)
    comp.add_argument("run_b", type=Path)
    comp.set_defaults(func=_cmd_compare)

    plot = sub.add_parser("plot-data", help="emit per-group power series from a run.csv")
    plot.add_argument("run", type=Path)
    plot.add_argument("--group", choices=GROUPINGS, required=True)
    plot.add_argument("--out", type=Path, required=True)
    plot.set_defaults(func=_cmd_plot_data)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", type=Path, default=None)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
