"""Command-line front end: single runs, figure sweeps, plot aggregation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, MixedSweepVariables
from .harness import (
    SWEEP_ALIASES,
    JsonlTrace,
    default_sweep,
    emit_csv,
    emit_plot_data,
    load_config,
    parse_csv,
    run_sweep,
    write_plot_csv,
    write_topology_csv,
)
from .metrics import MetricsTable
from .scenario import ARCHITECTURES, ScenarioConfig, Simulation


def _base_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    flags = {"seed": args.seed, "architecture": getattr(args, "arch", None)}
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        return replace(cfg, **overrides)
    except ValueError as exc:
        given = ", ".join(f"{key} = {value}" for key, value in overrides.items())
        raise ConfigError(f"{args.config} with {given}: {exc}") from None


def _cmd_run(args) -> int:
    cfg = _base_config(args)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            sim = Simulation(cfg, trace=JsonlTrace(handle)).run()
    else:
        sim = Simulation(cfg).run()
    row = sim.summary_row(run_id=f"run-{cfg.seed}-{cfg.architecture}")
    out = Path(args.out)
    emit_csv(MetricsTable([row]), out)
    topo = out.with_name(out.stem + "_topology.csv")
    write_topology_csv(sim.records, topo)
    mean = "n/a" if row.mean_latency_ms is None else f"{row.mean_latency_ms:.1f} ms"
    print(f"{row.completed} completed, {row.timed_out} unserved, "
          f"mean latency {mean}")
    print(f"wrote {out} and {topo}")
    return 0


def _cmd_sweep(args) -> int:
    spec = default_sweep(args.sweep, base=_base_config(args),
                         repetitions=args.reps)
    table = run_sweep(spec)
    count = emit_csv(table, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    try:
        table = parse_csv(args.input)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        series = emit_plot_data(table)
    except MixedSweepVariables as exc:
        print(f"input error: {args.input}: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        write_plot_csv(series, sys.stdout)
        return 0
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        count = write_plot_csv(series, handle)
    print(f"wrote {count} points to {args.out}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfog",
        description="Fog-coordinated EV charging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation and write metrics")
    run.add_argument("--config", help="path to a key = value config file")
    run.add_argument("--seed", type=int, help="override the base seed")
    run.add_argument("--arch", choices=ARCHITECTURES,
                     help="override the architecture")
    run.add_argument("--out", default="metrics.csv",
                     help="metrics CSV path (topology CSV written alongside)")
    run.add_argument("--trace", metavar="PATH",
                     help="write one JSON line per message sent to PATH")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run one of the three figure sweeps")
    sweep.add_argument("--sweep", required=True, choices=sorted(SWEEP_ALIASES),
                       help="which variable to sweep")
    sweep.add_argument("--config", help="path to a key = value config file")
    sweep.add_argument("--seed", type=int, help="override the base seed")
    sweep.add_argument("--reps", type=positive_int, default=10,
                       help="repetitions per sweep value")
    sweep.add_argument("--out", default="sweep.csv", help="metrics CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    plot = sub.add_parser("plot-data",
                          help="aggregate a sweep CSV into plot series")
    plot.add_argument("input", help="metrics CSV produced by run or sweep")
    plot.add_argument("--out", help="output CSV path (default: stdout)")
    plot.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
