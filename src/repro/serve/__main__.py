"""CLI for the serving layer.

``python -m repro.serve loadgen`` runs the wall-clock load generator
against an in-process front door and prints sustained txn/s plus
p50/p95/p99 latency; ``python -m repro.serve replay`` re-executes a
recorded journal and verifies it against the sealed footer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.common.errors import ConfigurationError
from repro.serve.core import ServeConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.replayer import verify_journal


def _parse_resize(text: str) -> tuple[float, str, int]:
    """Parse ``AT_S:add|remove:NODE`` (e.g. ``4.0:add:3``)."""
    try:
        at_s, kind, node = text.split(":")
        if kind not in ("add", "remove"):
            raise ValueError(kind)
        return float(at_s), kind, int(node)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad resize spec {text!r} (want AT_S:add|remove:NODE)"
        ) from None


def _loadgen_parser(sub) -> None:
    # Defaults are the dataclasses' own, so the CLI cannot drift from them.
    serve, load = ServeConfig(), LoadgenConfig()
    p = sub.add_parser("loadgen", help="wall-clock load generator")
    p.add_argument("--duration", type=float, default=load.duration_s,
                   help="send phase length in seconds (default %(default)s)")
    p.add_argument("--rate", type=float, default=load.rate_per_s,
                   help="target open-loop send rate, txn/s")
    p.add_argument("--connections", type=int, default=load.connections)
    p.add_argument("--keys", type=int, default=serve.num_keys)
    p.add_argument("--nodes", type=int, default=serve.num_nodes)
    p.add_argument("--initial-nodes", type=int, default=serve.initial_nodes,
                   help="start with only the first K nodes active")
    p.add_argument("--strategy", default=serve.strategy)
    p.add_argument("--epoch-us", type=float, default=serve.epoch_us)
    p.add_argument("--rw-ratio", type=float, default=load.rw_ratio)
    p.add_argument("--seed", type=int, default=load.seed)
    p.add_argument("--journal", default=load.journal_path,
                   help="record the arrival journal to this path")
    p.add_argument("--flash-crowd-at", type=float,
                   default=load.flash_crowd_at_s,
                   help="start a hot-key storm at this second")
    p.add_argument("--flash-crowd-s", type=float, default=load.flash_crowd_s)
    p.add_argument("--flash-crowd-mult", type=float,
                   default=load.flash_crowd_multiplier)
    p.add_argument("--resize", type=_parse_resize, action="append",
                   default=[], metavar="AT_S:add|remove:NODE",
                   help="elastic event under load (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")


def _cmd_loadgen(args) -> int:
    serve_config = ServeConfig(
        num_keys=args.keys,
        num_nodes=args.nodes,
        initial_nodes=args.initial_nodes,
        strategy=args.strategy,
        epoch_us=args.epoch_us,
    )
    load_config = LoadgenConfig(
        duration_s=args.duration,
        rate_per_s=args.rate,
        connections=args.connections,
        rw_ratio=args.rw_ratio,
        seed=args.seed,
        flash_crowd_at_s=args.flash_crowd_at,
        flash_crowd_s=args.flash_crowd_s,
        flash_crowd_multiplier=args.flash_crowd_mult,
        resizes=tuple(args.resize),
        journal_path=args.journal,
    )
    report = asyncio.run(run_loadgen(serve_config, load_config))
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        print(report.summary())
        serve = report.serve
        print(
            f"serve: {serve['ticks']} ticks · "
            f"{serve['commits']} commits · "
            f"fingerprint {serve['fingerprint']} · "
            f"digest {serve['digest']}"
        )
    if args.journal:
        print(f"journal: {args.journal}")
    return 0


def _cmd_replay(args) -> int:
    try:
        result = verify_journal(args.journal)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    replayed = result.replayed
    print(
        f"replayed {replayed.ticks} ticks, {replayed.commits} commits, "
        f"fingerprint {replayed.fingerprint}, digest {replayed.digest}"
    )
    if result.ok:
        print("journal verified: byte-identical to the recorded run")
        return 0
    for mismatch in result.mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="online serving: loadgen and journal replay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _loadgen_parser(sub)
    replay = sub.add_parser(
        "replay", help="replay a journal and verify its footer"
    )
    replay.add_argument("journal")
    args = parser.parse_args(argv)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
