"""perfbench: end-to-end and per-layer numbers for the simulator and the
serving front door.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 1] [--quick]
    python3 perfbench/run.py --agree [--seed N] [--seconds S]

The first form is one run of one workload; its last line is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).  Without
``--workload`` every workload in ``BENCHMARK.json`` runs, rounds
interleaved across workloads, one such line each.  ``--agree`` measures
two full sets of ten seeds and holds every end-to-end metric to its bound.

A run is ``ROUNDS`` rounds, each a fresh ``worker.py`` process measuring
for ``seconds / ROUNDS`` in several slices.  Interference from the shared
host only ever makes a slice worse, so a timed end-to-end value is the
median of the best quarter of the run's slices; set-up time and memory are
medians over the rounds.  With ``--trace 1`` one round measures untraced
(public counters) and then under ``cProfile`` (per-layer split) instead.
Every run also writes a stats file with all samples under
``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "_out")
ROUNDS = 4
QUICK_SECONDS = 1.5
AGREE_SEEDS = 10
ROUND_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_round(workload: str, seed: int, seconds: float, *, trace: bool,
              verify: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_BENCH_SCALE"] = "1.0"
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--scratch", SCRATCH,
        "--launched", repr(time.time()),
    ]
    if trace:
        command.append("--trace")
    if verify:
        command.append("--verify")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=ROUND_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def collect(workloads: list[str], seed: int, seconds: float,
            trace: bool) -> dict[str, list[dict]]:
    """Every round of every workload, interleaved round-robin."""
    os.makedirs(SCRATCH, exist_ok=True)
    rounds = 1 if trace else ROUNDS
    per_workload: dict[str, list[dict]] = {name: [] for name in workloads}
    for index in range(rounds):
        for name in workloads:
            per_workload[name].append(run_round(
                name, seed, seconds / ROUNDS, trace=trace,
                # One journal replay per run: replaying all would double it.
                verify=index == rounds - 1,
            ))
    return per_workload


def least_disturbed(values: list[float], better: str) -> float:
    """Median of the best quarter of the slices.

    On the reference box in a noisy spell, ten runs spread 16-38 % on the
    median of all slices, 11-29 % on the median of each round's best slice,
    and 4-11 % on this (README, "How a run is measured").
    """
    ranked = sorted(values, reverse=better == "higher")
    return statistics.median(ranked[:max(1, len(ranked) // 4)])


def summarize(spec: dict, rounds: list[dict], trace: bool) -> dict:
    """The contract's result object plus the samples behind it."""
    problems = [problem for r in rounds for problem in r["problems"]]
    identities = [r["identity"] for r in rounds if "identity" in r]
    if any(identity != identities[0] for identity in identities):
        problems.append("rounds of a deterministic workload disagree")
    if trace:
        layer = rounds[0]["layer"]
        named = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unnamed = sorted(set(layer) - set(named))
        if unnamed:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unnamed}")
        stats = {
            name: {"value": layer.get(name, 0), "n": int(name in layer)}
            for name in named
        }
    else:
        named = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        stats = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in rounds[0]["samples"]:
                values = [v for r in rounds for v in r["samples"][name]]
                value = least_disturbed(values, metric["better"])
            else:
                values = [r[name] for r in rounds]
                value = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"value": value, "q1": q1, "q3": q3, "n": len(values)}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": stats[name]["value"], "unit": unit}
            for name, unit in named.items()
        },
        "problems": problems,
        "stats": stats,
    }


def report(name: str, summary: dict, args) -> None:
    print(f"{name}  seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for metric, entry in summary["metrics"].items():
        stats = summary["stats"][metric]
        spread = (
            f"  (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
            if "q1" in stats else ""
        )
        print(f"  {metric:<42}{entry['value']:>14.6g} {entry['unit']}{spread}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")
    path = args.out or os.path.join(
        SCRATCH, f"{name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": args.seed,
                   "seconds": args.seconds, **summary}, handle, indent=1)


def run(spec: dict, workloads: list[str], args) -> bool:
    rounds = collect(workloads, args.seed, args.seconds, bool(args.trace))
    correct = True
    for name in workloads:
        summary = summarize(spec, rounds[name], bool(args.trace))
        report(name, summary, args)
        correct = correct and summary["correct"]
        print(json.dumps({
            key: summary[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
    return correct


def agree(spec: dict, workloads: list[str], args) -> bool:
    """Two sets of ``AGREE_SEEDS`` runs; every bound must hold on both."""
    sets: list[dict] = []
    for _ in range(2):
        values: dict = {}
        for seed in range(args.seed, args.seed + AGREE_SEEDS):
            rounds = collect(workloads, seed, args.seconds, False)
            for name in workloads:
                summary = summarize(spec, rounds[name], False)
                if not summary["correct"] or summary["failed"]:
                    print(f"{name} seed={seed}: {summary['problems']}, "
                          f"{summary['failed']} failed")
                    return False
                for metric, entry in summary["metrics"].items():
                    values.setdefault((metric, name), []).append(entry["value"])
        sets.append(values)
    ok = True
    print(f"{'metric':<16}{'workload':<20}{'median 1':>12}{'median 2':>12}"
          f"{'2 vs 1':>9}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for metric in spec["end_to_end"]:
        for name in workloads:
            first, second = (s[metric["name"], name] for s in sets)
            medians = [statistics.median(first), statistics.median(second)]
            spreads = []
            for values, median in zip((first, second), medians):
                q1, _, q3 = statistics.quantiles(values, n=4)
                spreads.append((q3 - q1) / median)
            worse = medians[1] / medians[0] - 1.0
            if metric["better"] == "higher":
                worse = -worse
            held = worse <= metric["bound"] and (
                metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            )
            ok = ok and held
            print(f"{metric['name']:<16}{name:<20}{medians[0]:>12.5g}"
                  f"{medians[1]:>12.5g}{medians[1] / medians[0]:>9.3f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}"
                  f"{metric['bound']:>7.2f}  {'PASS' if held else 'FAIL'}")
    return ok


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"measure for {QUICK_SECONDS} s per workload")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--out", help="stats file (single workload only)")
    args = parser.parse_args()
    if args.quick:
        args.seconds = QUICK_SECONDS
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; nothing to measure",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else names
    ok = (agree if args.agree else run)(spec, workloads, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
