"""Command-line runner for the figure experiments.

Usage::

    python -m repro.bench list
    python -m repro.bench google calvin leap hermes --duration 5
    python -m repro.bench tpcc --hot 0.9 calvin hermes
    python -m repro.bench multitenant calvin clay hermes
    python -m repro.bench scaleout squall hermes-cold-5

Prints the same tables/series the benchmarks assert on, without pytest —
handy for exploring parameters interactively.  A flag left unset runs
the kind's own default (the operating point the figures use).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import PRESETS, ExperimentSpec, run_experiment
from repro.bench.reporting import (
    format_latency_breakdown,
    format_series,
    format_table,
)
from repro.bench.specs import ALL_STRATEGIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list known strategies")

    google = sub.add_parser("google", help="Google-trace YCSB comparison")
    google.add_argument("strategies", nargs="+")
    google.add_argument("--rate-scale", type=float, default=None)
    google.add_argument("--latency", action="store_true",
                        help="also print the Figure 7 latency breakdown")

    tpcc = sub.add_parser("tpcc", help="TPC-C hot-spot comparison")
    tpcc.add_argument("strategies", nargs="+")
    tpcc.add_argument(
        "--hot", type=float,
        default=PRESETS["fig11"]().params["hot_fraction"],
        help="hot-spot fraction (default: the fig11 preset's)",
    )

    multi = sub.add_parser("multitenant", help="moving hot-spot comparison")
    multi.add_argument("strategies", nargs="+")

    scale = sub.add_parser("scaleout", help="Figure 14 scale-out variants")
    scale.add_argument("variants", nargs="+")

    for cmd in (google, tpcc, multi, scale):
        cmd.add_argument("--duration", type=float, default=None,
                         help="simulated seconds (default: the kind's)")
        cmd.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="fan runs out over N worker processes "
                 "(results identical to serial)",
        )

    args = parser.parse_args(argv)

    if args.command == "list":
        print("strategies:", ", ".join(ALL_STRATEGIES),
              "+ hermes-noreorder, hermes-nobalance")
        print("scale-out variants: squall, clay+squall, hermes-nocold-5, "
              "hermes-nocold-10, hermes-cold-5")
        return 0

    if args.command == "google":
        results = run_experiment(ExperimentSpec(
            kind="google", strategies=tuple(args.strategies),
            duration_s=args.duration, jobs=args.jobs,
            params=(
                {} if args.rate_scale is None
                else {"rate_scale": args.rate_scale}
            ),
        ))
        print(format_table(results, "Google-trace YCSB"))
        print(format_series(results))
        if args.latency:
            print(format_latency_breakdown(results))
        return 0

    if args.command == "tpcc":
        results = run_experiment(ExperimentSpec(
            kind="tpcc", strategies=tuple(args.strategies),
            duration_s=args.duration, jobs=args.jobs,
            params={"hot_fraction": args.hot},
        ))
        print(format_table(results, f"TPC-C, hot fraction {args.hot}"))
        return 0

    if args.command == "multitenant":
        results = run_experiment(ExperimentSpec(
            kind="multitenant", strategies=tuple(args.strategies),
            duration_s=args.duration, jobs=args.jobs,
        ))
        print(format_table(results, "multi-tenant, rotating hot spot"))
        print(format_series(results))
        return 0

    if args.command == "scaleout":
        results = run_experiment(ExperimentSpec(
            kind="scaleout", strategies=tuple(args.variants),
            duration_s=args.duration, jobs=args.jobs,
        ))
        print(format_table(results, "scale-out 3 -> 4 nodes"))
        print(format_series(results))
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
