"""Observability CLI: record and analyze traced benchmark runs.

Usage::

    # record one traced strategy run of a figure preset
    python -m repro.obs record --preset fig07 --seed 1
    python -m repro.obs record --preset fig11 --strategy calvin \\
        --duration 1.0 --chrome fig11.chrome.json

    # re-analyze a previously recorded trace
    python -m repro.obs report fig07_seed1_hermes.trace.jsonl --top 15

``record`` runs the named :data:`repro.api.PRESETS` experiment with a
:class:`~repro.obs.tracer.Tracer` attached (one strategy per recording — pass
``--strategy`` to pick; default is the preset's last, the Hermes-style
headline), writes the deterministic JSONL trace, optionally a Chrome
``trace_event`` export for Perfetto, and prints the report: top
lock-wait chains, per-node load timelines, and the per-stage latency
flame.  The same (preset, seed, strategy, duration) always produces a
byte-identical JSONL file — the simulation and the tracer are both
deterministic.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.analyze import (
    event_counts,
    format_forecast_health,
    format_node_load,
    format_ollp_exhaustion,
    format_stage_flame,
    format_wait_chains,
    lock_wait_chains,
)
from repro.obs.tracer import Tracer, read_jsonl


def _print_report(events: list[dict], top: int) -> None:
    counts = ", ".join(f"{cat}:{n}" for cat, n in event_counts(events).items())
    print(f"events by category: {counts or 'none'}")
    print()
    print(format_wait_chains(lock_wait_chains(events, top=top)))
    print()
    print(format_node_load(events))
    print()
    print(format_stage_flame(events))
    print()
    print(format_ollp_exhaustion(events))
    forecast_line = format_forecast_health(events)
    if forecast_line:
        print(forecast_line)


def _audit_cluster(cluster) -> int:
    """Print a placement audit of a live cluster; 1 on violations.

    Figure presets cut the simulation at the duration mark without
    draining (throughput-over-time figures measure a running system),
    so the kept cluster can hold mid-flight chunks whose records are
    legitimately detached.  The audit is only defined at quiescence —
    drain first (deterministic: the drivers stopped at the mark, so
    this just lets in-flight work land).
    """
    from repro.analysis.placement_audit import audit_placement

    if cluster.inflight:
        pending = cluster.inflight
        drained_at = cluster.run_until_quiescent(cluster.kernel.now * 2)
        print(f"\ndrained {pending} in-flight txns by "
              f"t={drained_at / 1e6:.3f}s for the audit")
        if cluster.inflight:
            print(f"warning: {cluster.inflight} txns never drained",
                  file=sys.stderr)
    report = audit_placement(cluster)
    print()
    print(report.describe())
    return 0 if report.ok else 1


def _rerun_and_audit(
    preset: str, seed: int, strategy: str, duration_s: float | None
) -> int:
    """Deterministically re-run a recorded experiment and audit it.

    The trace file only carries events, not the final stores, but the
    simulation is a pure function of (preset, seed, strategy, duration)
    — re-running with ``keep_cluster=True`` reproduces the exact cluster
    the recording ended with.
    """
    from repro.api import preset_spec, run_experiment

    spec = preset_spec(preset, seed=seed, jobs=None)
    if duration_s is not None:
        spec = spec.with_overrides(duration_s=duration_s)
    spec = spec.with_overrides(strategies=(strategy,), keep_cluster=True)
    print(f"re-running {preset} / {strategy} (seed {seed}) for the audit ...")
    results = run_experiment(spec)
    result = results[0] if isinstance(results, list) else results
    cluster = result.extras.get("cluster")
    if cluster is None:
        print("error: experiment did not retain its cluster",
              file=sys.stderr)
        return 2
    return _audit_cluster(cluster)


def _record(args: argparse.Namespace) -> int:
    from repro.api import preset_spec, run_experiment

    spec = preset_spec(args.preset, seed=args.seed, jobs=None)
    if args.duration is not None:
        spec = spec.with_overrides(duration_s=args.duration)
    strategy = args.strategy or spec.strategies[-1]
    if strategy not in spec.strategies:
        print(f"error: preset {args.preset!r} has no strategy "
              f"{strategy!r} (choose from {', '.join(spec.strategies)})",
              file=sys.stderr)
        return 2
    tracer = Tracer(preset=args.preset, seed=args.seed, strategy=strategy,
                    duration_s=spec.duration_s)
    spec = spec.with_overrides(strategies=(strategy,), trace=tracer)
    if args.audit_placement:
        spec = spec.with_overrides(keep_cluster=True)

    print(f"recording {args.preset} / {strategy} (seed {args.seed}) ...")
    results = run_experiment(spec)
    result = results[0] if isinstance(results, list) else results

    out = args.out or f"{args.preset}_seed{args.seed}_{strategy}.trace.jsonl"
    tracer.write_jsonl(out)
    print(f"wrote {len(tracer)} events to {out}")
    if args.chrome:
        tracer.write_chrome_trace(args.chrome)
        print(f"wrote Chrome trace to {args.chrome} "
              "(open in https://ui.perfetto.dev)")
    print(f"run: {result.commits} commits, "
          f"{result.throughput_per_s:,.1f} txn/s, "
          f"mean latency {result.mean_latency_us / 1000:,.2f}ms")
    print()
    _print_report(tracer.events, args.top)
    if args.audit_placement:
        cluster = result.extras.get("cluster")
        if cluster is None:
            print("error: experiment did not retain its cluster",
                  file=sys.stderr)
            return 2
        return _audit_cluster(cluster)
    return 0


def _report(args: argparse.Namespace) -> int:
    meta, events = read_jsonl(args.trace)
    if meta:
        described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"trace {args.trace}: {described}")
    _print_report(events, args.top)
    if args.audit_placement:
        missing = [k for k in ("preset", "seed", "strategy") if k not in meta]
        if missing:
            print(f"error: trace meta lacks {', '.join(missing)}; cannot "
                  "re-run for the placement audit", file=sys.stderr)
            return 2
        return _rerun_and_audit(
            meta["preset"], int(meta["seed"]), meta["strategy"],
            meta.get("duration_s"),
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a traced preset experiment")
    record.add_argument("--preset", required=True,
                        help="figure preset name (see repro.api.PRESETS)")
    record.add_argument("--seed", type=int, default=7)
    record.add_argument("--strategy", default=None,
                        help="strategy/variant to trace "
                             "(default: the preset's last)")
    record.add_argument("--duration", type=float, default=None, metavar="S",
                        help="override the preset's simulated seconds")
    record.add_argument("--out", default=None, metavar="PATH",
                        help="JSONL output path (default: derived name)")
    record.add_argument("--chrome", default=None, metavar="PATH",
                        help="also write a Chrome trace_event JSON")
    record.add_argument("--top", type=int, default=10,
                        help="lock-wait chains to print")
    record.add_argument("--audit-placement", action="store_true",
                        help="audit final record placement against the "
                             "ownership view and WAL migration history")

    report = sub.add_parser("report", help="analyze a recorded JSONL trace")
    report.add_argument("trace")
    report.add_argument("--top", type=int, default=10)
    report.add_argument("--audit-placement", action="store_true",
                        help="re-run the recorded experiment and audit "
                             "its final record placement")

    args = parser.parse_args(argv)
    if args.command == "record":
        return _record(args)
    return _report(args)


if __name__ == "__main__":
    sys.exit(main())
