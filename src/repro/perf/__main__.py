"""CLI for the perf microbenchmarks and regression gate.

Usage::

    # run the full suite and print a table
    PYTHONPATH=src python -m repro.perf

    # quick mode (CI smoke): ~10x smaller scenarios
    PYTHONPATH=src python -m repro.perf --quick

    # record a new entry in the tracking file at the repo root
    PYTHONPATH=src python -m repro.perf --json BENCH_sim.json --label "PR 2"

    # regression gate: fail if any bench regressed >30% vs the last
    # committed entry at the same scale (normalized by the calibration
    # bench, so numbers from a different machine compare meaningfully)
    PYTHONPATH=src python -m repro.perf --quick --compare BENCH_sim.json

    # profile the hot paths
    PYTHONPATH=src python -m repro.perf --profile --bench kernel_e2e

    # print the per-scenario events/s trajectory across history entries
    PYTHONPATH=src python -m repro.perf --trend BENCH_sim.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from repro.perf.measure import BenchResult, measure, measure_interleaved
from repro.perf.scenarios import SCENARIO_EXTRAS, SCENARIOS

#: Benches whose events/s participates in the regression gate.  The
#: calibration loop is the normalizer, not a gated metric, and the
#: scale-out smokes (``scale_sim``/``scale_sim_20m``) are tracked for
#: trend/RSS only — their fixed large-keyspace setup dominates short CI
#: runs, so their events/s is too noisy to gate on.
GATED = tuple(
    name for name in SCENARIOS
    if name not in ("calibration", "scale_sim", "scale_sim_20m")
)

#: Excluded from the default suite: minutes of wall clock and ~1 GB of
#: RSS per run.  The weekly workflow requests it via ``--bench``.
HEAVY = ("scale_sim_20m",)

#: Maximum fraction of the same run's ``kernel_e2e`` score that the
#: disabled-tracer guard discipline (``tracer_overhead``) may cost.
#: Compared within one run, so machine speed cancels exactly.
TRACER_OVERHEAD_LIMIT = 0.03

#: These two scenarios are measured interleaved (round-robin) whenever
#: both run: the gate compares their *ratio*, which back-to-back
#: measurements would contaminate with window-to-window CPU jitter.
#: The gated ratio is the median over :data:`PAIRED_ROUNDS` rounds of
#: the two scores within one round: a ratio of two best-of floors
#: pairs samples from different noise windows.
PAIRED = ("kernel_e2e", "tracer_overhead")
PAIRED_ROUNDS = 16


def run_suite(
    names: list[str], scale: float, repeats: int, profile: bool
) -> dict[str, BenchResult]:
    results: dict[str, BenchResult] = {}
    paired: dict[str, BenchResult] = {}
    if not profile and all(name in names for name in PAIRED):
        paired = measure_interleaved(
            {n: (lambda n=n: SCENARIOS[n](scale)) for n in PAIRED},
            repeats=max(repeats, PAIRED_ROUNDS),
        )
        kernel, guarded = (paired[n].rates for n in PAIRED)
        paired["tracer_overhead"].extras = {"round_ratio_median": round(
            statistics.median(g / k for k, g in zip(kernel, guarded)), 4
        )}
    for name in names:
        result = paired.get(name) or measure(
            name, lambda n=name: SCENARIOS[n](scale),
            repeats=repeats, profile=profile,
        )
        if name in SCENARIO_EXTRAS:
            result.extras.update(SCENARIO_EXTRAS[name])
        results[name] = result
        print(
            f"  {name:<16} {result.events:>10} units  "
            f"{result.wall_s:>8.3f}s  {result.events_per_s:>12,.0f} events/s"
        )
        if profile and result.profile_top:
            print(result.profile_top)
    return results


def normalized(results: dict[str, dict]) -> dict[str, float]:
    """events/s per bench divided by the run's calibration events/s."""
    calib = results.get("calibration", {}).get("events_per_s", 0.0)
    if not calib:
        return {}
    return {
        name: data["events_per_s"] / calib
        for name, data in results.items()
        if name != "calibration"
    }


def compare(
    current: dict[str, dict],
    baseline_entry: dict,
    tolerance: float,
    per_scenario: dict[str, float] | None = None,
) -> list[str]:
    """Return a list of regression messages (empty when the gate passes).

    ``per_scenario`` overrides the blanket ``tolerance`` for individual
    benches — the end-to-end scenarios have more run-to-run spread than
    the microbenches, so CI grants them a looser band without loosening
    the kernel gates.
    """
    problems: list[str] = []
    overrides = per_scenario or {}
    base_norm = normalized(baseline_entry.get("benches", {}))
    cur_norm = normalized(current)
    if not base_norm or not cur_norm:
        return ["missing calibration bench; cannot normalize for compare"]
    for name in GATED:
        if name not in base_norm or name not in cur_norm:
            continue
        allowed = overrides.get(name, tolerance)
        floor = base_norm[name] * (1.0 - allowed)
        if cur_norm[name] < floor:
            problems.append(
                f"{name}: normalized score {cur_norm[name]:.3f} < "
                f"{floor:.3f} (baseline {base_norm[name]:.3f} "
                f"- {allowed:.0%} tolerance)"
            )
    problems.extend(check_tracer_overhead(current))
    return problems


def trend(history: list[dict]) -> str:
    """Per-scenario events/s across history entries, grouped by scale.

    One table per recorded scale, scenarios as rows and history entries
    as columns — the shape that makes a multi-PR slide (like the PR 3-4
    routing regression) visible at a glance.  Raw events/s are shown;
    cross-machine drift shows up in the ``calibration`` row, so a bench
    falling while calibration holds is a real regression.
    """
    scales = sorted({e.get("scale") for e in history}, reverse=True)
    lines: list[str] = []
    for scale in scales:
        entries = [e for e in history if e.get("scale") == scale]
        labels = [e.get("label", "<unlabeled>") for e in entries]
        names: list[str] = []
        for entry in entries:
            for name in entry.get("benches", {}):
                if name not in names:
                    names.append(name)
        lines.append(f"scale={scale}  ({len(entries)} entries)")
        width = max((len(label) for label in labels), default=8)
        width = min(max(width, 10), 24)
        header = "  " + " " * 18 + "".join(
            f"{label[:width]:>{width + 2}}" for label in labels
        )
        lines.append(header)
        for name in names:
            cells = []
            for entry in entries:
                data = entry.get("benches", {}).get(name)
                cells.append(
                    f"{data['events_per_s']:>{width + 2},.0f}"
                    if data else " " * (width + 2)
                )
            lines.append(f"  {name:<18}" + "".join(cells))
        lines.append("")
    return "\n".join(lines).rstrip()


def parse_tolerance_overrides(specs: list[str]) -> dict[str, float]:
    """Parse ``name=frac`` strings into a per-scenario tolerance map."""
    overrides: dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep:
            raise ValueError(f"--tolerance-for needs name=frac, got {spec!r}")
        if name not in SCENARIOS:
            raise ValueError(f"--tolerance-for: unknown bench {name!r}")
        overrides[name] = float(value)
    return overrides


def check_tracer_overhead(current: dict[str, dict]) -> list[str]:
    """The disabled-tracer bound: the median per-round ratio of
    ``tracer_overhead`` to ``kernel_e2e`` within 3 % of 1.  No-op unless
    both scenarios ran interleaved."""
    extras = current.get("tracer_overhead", {}).get("extras", {})
    ratio = extras.get("round_ratio_median")
    if ratio is None:
        return []
    if ratio < 1.0 - TRACER_OVERHEAD_LIMIT:
        return [
            f"tracer_overhead: disabled-tracer score is {1 - ratio:.1%} "
            "below kernel_e2e's in the median interleaved round "
            f"(limit {TRACER_OVERHEAD_LIMIT:.0%})"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.perf")
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller scenarios (CI smoke mode)")
    parser.add_argument("--scale", type=float, default=None,
                        help="explicit scenario scale (overrides --quick)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N repeats (default 3, 1 in quick mode)")
    parser.add_argument("--profile", action="store_true",
                        help="attach a cProfile top-15 per bench")
    parser.add_argument("--bench", nargs="*", default=None,
                        help="subset of benches to run")
    parser.add_argument("--json", type=Path, default=None,
                        help="append results to this tracking file")
    parser.add_argument("--label", default="",
                        help="label for the tracking-file entry")
    parser.add_argument("--compare", type=Path, default=None,
                        help="fail on regression vs the last entry here")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--tolerance-for", action="append", default=[],
                        metavar="NAME=FRAC",
                        help="per-scenario tolerance override (repeatable), "
                             "e.g. --tolerance-for end_to_end=0.40")
    parser.add_argument("--trend", type=Path, default=None, metavar="FILE",
                        help="print the per-scenario events/s trajectory "
                             "across this tracking file's history and exit")
    args = parser.parse_args(argv)

    if args.trend is not None:
        history = json.loads(args.trend.read_text()).get("history", [])
        if not history:
            print(f"no history entries in {args.trend}")
            return 1
        print(trend(history))
        return 0

    try:
        overrides = parse_tolerance_overrides(args.tolerance_for)
    except ValueError as exc:
        parser.error(str(exc))

    scale = args.scale if args.scale is not None else (
        0.1 if args.quick else 1.0
    )
    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 3
    )
    names = list(args.bench) if args.bench else [
        n for n in SCENARIOS if n not in HEAVY
    ]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown bench(es): {', '.join(unknown)}")
    if (args.compare or args.json) and "calibration" not in names:
        names.insert(0, "calibration")

    print(f"repro.perf  scale={scale}  repeats={repeats}")
    results = run_suite(names, scale, repeats, args.profile)
    payload = {name: r.to_json() for name, r in results.items()}

    status = 0
    if args.compare is not None:
        history = json.loads(args.compare.read_text())["history"]
        # Scores are only comparable at equal scale: small runs pay a
        # larger share of per-run warm-up (e.g. the routers' home-cache
        # fills amortize over fewer transactions), so gate against the
        # most recent baseline recorded at this scale.
        matching = [e for e in history if e.get("scale") == scale]
        if not matching:
            print(f"\nno baseline at scale={scale} in {args.compare}; "
                  f"record one with --json first")
            return 1
        baseline = matching[-1]
        problems = compare(payload, baseline, args.tolerance, overrides)
        label = baseline.get("label", "<unlabeled>")
        if problems:
            print(f"\nPERF REGRESSION vs {label!r}:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print(f"\nperf gate OK vs {label!r} "
                  f"(tolerance {args.tolerance:.0%})")

    if args.json is not None:
        if args.json.exists():
            doc = json.loads(args.json.read_text())
        else:
            doc = {"schema": 1, "history": []}
        doc["history"].append({
            "label": args.label or f"run (scale={scale})",
            "scale": scale,
            "benches": payload,
            "normalized": {
                k: round(v, 4) for k, v in normalized(payload).items()
            },
        })
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")

    return status


if __name__ == "__main__":
    sys.exit(main())
