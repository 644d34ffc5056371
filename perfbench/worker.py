"""One round of one workload, in a fresh process.

``run.py`` starts this file once per round so that imports, caches and
the allocator start cold every time and set-up can be timed from process
launch.  A round prints one JSON object::

    {"setup_s": ..., "peak_rss_mb": ..., "attempted": ..., "failed": ...,
     "samples": {"txn_per_wall_s": [...], "p50_ms": [...], "p95_ms": [...]},
     "identity": [...], "problems": [...], "layer": {...}}

``samples`` holds one timed measurement per *slice* of the round (one
``run_experiment`` call, half a second of socket traffic, one recorded and
verified journal); ``run.py`` keeps each round's best slice.  ``identity``
is what must repeat exactly in every round of a deterministic workload,
``problems`` lists failed output checks and ``layer`` holds the per-layer
metrics of a ``--trace`` round.

Only public entry points are driven: ``repro.api.run_experiment`` for the
simulator, ``ServeCore`` / ``JournalWriter`` / ``verify_journal`` and the
``server.py`` launcher for the serving stack.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import layers
import loadgen
from repro.api import ExperimentSpec, run_experiment
from repro.bench.harness import peak_rss_mb
from repro.serve import JournalWriter, ServeConfig, ServeCore, verify_journal
from repro.workloads.multitenant import MultiTenantConfig

HERE = os.path.dirname(os.path.abspath(__file__))

#: Wall seconds one simulator slice takes on the 2-core reference box.
#: The number of slices follows from ``--seconds`` alone, never from how
#: fast this host happens to be, so the inputs are a function of seed and
#: seconds.
SIM_SLICE_S = 1.3
#: Simulated seconds per slice, chosen so both strategies fill a slice.
SIM_DURATION_S = {"hermes": 1.0, "calvin": 4.0}
#: The hot node rotates four times per Hermes slice (the moving hot spot).
SIM_TENANTS = MultiTenantConfig(
    num_nodes=4, tenants_per_node=4, records_per_tenant=2_500,
    rotation_interval_us=250_000.0,
)

CONNECTIONS = 2
CLOSED_WINDOW = 256
#: Socket phases are cut into slices of this many seconds by reply time.
SOCKET_SLICE_S = 0.5
#: One replay slice records this many ticks of this many requests, then
#: verifies the journal: about ``REPLAY_SLICE_S`` at ~4k txn/s each way.
REPLAY_SLICE_S = 0.5
REPLAY_TICKS = 25
REPLAY_TICK_REQUESTS = 40


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def calibrate() -> float:
    """Million loop iterations per second of a fixed spin: host speed now."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return 2.0 / (time.perf_counter() - started)


def profile_layers(split: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one profiled phase."""
    total = split["total_s"] or 1.0
    out = {"trace.overhead_ratio": traced_s / untraced_s}
    for name, (self_s, calls) in split["layers"].items():
        out[f"{name}.self_frac"] = self_s / total
        out[f"{name}.calls"] = calls
    for name, (calls, cum_s) in split["boundaries"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.cum_s"] = cum_s
    return out


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


def sim_round(args, strategy: str) -> dict:
    slices = max(1, int(args.seconds / SIM_SLICE_S))
    specs = [
        ExperimentSpec(
            kind="multitenant",
            strategies=(strategy,),
            duration_s=SIM_DURATION_S[strategy],
            seed=args.seed * 1_000 + index,
            keep_cluster=True,
            params={"config": SIM_TENANTS},
        )
        for index in range(slices)
    ]
    setup_s = time.time() - args.launched

    rates, p50_ms, p95_ms = [], [], []
    identity, attempted, failed = [], 0, 0
    untraced_s = 0.0
    for spec in specs:
        started = time.perf_counter()
        result = run_experiment(spec)[0]
        wall_s = time.perf_counter() - started
        untraced_s += wall_s
        cluster = result.extras["cluster"]
        rates.append(result.commits / wall_s)
        p50_ms.append(result.latency_p50_us / 1e3)
        p95_ms.append(result.latency_p95_us / 1e3)
        identity.append([
            result.commits, result.throughput_per_s, result.latency_p99_us,
            cluster.state_fingerprint(),
        ])
        attempted += result.extras["submitted"]
        failed += cluster.metrics.aborts
    out = {
        "setup_s": setup_s, "identity": identity,
        "attempted": attempted, "failed": failed, "problems": [],
        # The latencies are the model's, a pure function of the seed: no
        # slice is better than another, so the round reports their mean.
        "samples": {
            "txn_per_wall_s": rates,
            "p50_ms": [statistics.fmean(p50_ms)],
            "p95_ms": [statistics.fmean(p95_ms)],
        },
    }
    if not args.trace:
        return out

    layer = sim_counters(result)
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    traced = [run_experiment(spec)[0] for spec in specs]
    profile.disable()
    traced_s = time.perf_counter() - started
    if [r.commits for r in traced] != [row[0] for row in identity]:
        out["problems"].append("traced run committed a different count")
    layer.update(profile_layers(layers.split(profile), traced_s, untraced_s))
    out["layer"] = layer
    return out


def sim_counters(result) -> dict:
    """Public counters of the last untraced slice's cluster."""
    cluster = result.extras["cluster"]
    metrics = cluster.metrics
    commits = max(1, result.commits)
    locks = cluster.lock_manager
    stages = result.latency_breakdown_us
    return {
        "sim.model.commit_per_sim_s": result.throughput_per_s,
        "sim.model.p99_us": result.latency_p99_us,
        "sim.kernel.events_per_txn": cluster.kernel.events_processed / commits,
        "sim.network.msgs_per_txn":
            sum(cluster.network.messages_sent.values()) / commits,
        "sim.network.bytes_per_txn": result.net_bytes_per_commit,
        "engine.sequencer.txns_per_batch":
            metrics.user_txns / max(1, metrics.batches),
        "core.router.dist_txn_ratio": result.extras["distributed_txn_ratio"],
        "core.router.moves_planned":
            result.extras.get("router_stats", {}).get("moves_planned", 0),
        "core.fusion_table.evictions": result.evictions,
        "engine.locks.grants": locks.grants_total,
        "engine.locks.wait_frac": locks.waits_total / max(1, locks.grants_total),
        "engine.executor.remote_reads_per_txn": result.remote_reads / commits,
        "engine.node.cpu_util": result.cpu_utilization,
        **{f"engine.stage.{stage}_us": value for stage, value in stages.items()},
        "storage.store.memory_mb":
            result.extras["store_usage"]["store_memory_bytes"] / 1e6,
    }


# ----------------------------------------------------------------------
# Serving over sockets
# ----------------------------------------------------------------------


def socket_round(args, rate: float | None) -> dict:
    """``rate`` requests/s open loop, or closed loop when ``rate`` is None."""
    problems: list[str] = []
    untraced = socket_phase(args, rate, False, problems)
    out = {
        "setup_s": untraced["setup_s"],
        "peak_rss_mb": untraced["report"]["peak_rss_mb"],
        "samples": untraced["samples"],
        "attempted": untraced["attempted"], "failed": untraced["failed"],
        "problems": problems,
    }
    if args.trace:
        # Profiling about doubles the server's CPU per request.  Offering
        # half the rate keeps the profiled server near the utilisation the
        # untraced one has, instead of profiling an overload.
        half = None if rate is None else rate / 2
        traced = socket_phase(args, half, True, problems)
        out["attempted"] += traced["attempted"]
        out["failed"] += traced["failed"]
        layer = socket_counters(untraced, rate)
        layer.update(profile_layers(
            traced["report"]["profile"],
            traced["report"]["cpu_s"] / max(1, traced["committed"]),
            untraced["report"]["cpu_s"] / max(1, untraced["committed"]),
        ))
        out["layer"] = layer
    return out


def socket_phase(args, rate: float | None, traced: bool, problems: list) -> dict:
    num_keys = ServeConfig().num_keys
    rngs = [
        random.Random(args.seed * 1_000 + conn) for conn in range(CONNECTIONS)
    ]
    schedules = None
    if rate is not None:
        schedules = [
            loadgen.make_schedule(rng, rate / CONNECTIONS, args.seconds)
            for rng in rngs
        ]
        counts = [len(due) for due in schedules]
    else:
        # The closed loop cycles through these bodies under fresh tags.
        counts = [20_000] * CONNECTIONS
    bodies = [
        loadgen.make_bodies(rng, count, num_keys)
        for rng, count in zip(rngs, counts)
    ]
    journal = os.path.join(
        args.scratch, f"{args.workload}-{os.getpid()}-{int(traced)}.journal"
    )
    command = [sys.executable, os.path.join(HERE, "server.py"), "--journal", journal]
    if traced:
        command.append("--trace")
    server = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        port = json.loads(server.stdout.readline())["port"]
        setup_s = time.time() - args.launched
        stats, wall_s = asyncio.run(loadgen.run_phase(
            "127.0.0.1", port, bodies, args.seconds,
            schedules=schedules, window=CLOSED_WINDOW,
        ))
        server.stdin.close()
        report = json.loads(server.stdout.readline())
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    committed = stats.counts["committed"]
    failed = stats.sent - committed
    if sum(stats.counts.values()) + stats.unanswered != stats.sent:
        problems.append("replies and unanswered do not add up to sent")
    if report["commits"] < committed:
        problems.append("client saw more commits than the server reported")
    if report["accepted"] != stats.sent - stats.counts["shed"] - stats.counts["error"]:
        problems.append("server accepted a different count than was sent")
    verify = None
    if args.verify and not traced:
        started = time.perf_counter()
        verify = verify_journal(journal)
        verify = {
            "ok": verify.ok,
            "txn_per_wall_s":
                verify.replayed.commits / (time.perf_counter() - started),
        }
        if not verify["ok"]:
            problems.append("journal does not replay to its footer")
    else:
        with open(journal, "rb") as handle:
            last = handle.read().rstrip().rsplit(b"\n", 1)[-1]
        if json.loads(last).get("kind") != "footer":
            problems.append("journal has no footer")
    journal_bytes = os.path.getsize(journal)
    os.remove(journal)
    return {
        "setup_s": setup_s, "report": report, "stats": stats,
        "committed": committed, "attempted": stats.sent, "failed": failed,
        "verify": verify, "journal_bytes": journal_bytes,
        "latencies_ms": [latency_s * 1e3 for _, latency_s in stats.replies],
        "samples": socket_samples(stats, args.seconds, wall_s, rate is None),
    }


def socket_samples(stats, seconds: float, wall_s: float, closed: bool) -> dict:
    """Cut one phase into ``SOCKET_SLICE_S`` slices by reply time."""
    slices = [[] for _ in range(max(1, int(seconds / SOCKET_SLICE_S)))]
    last_reply = [0.0] * len(slices)
    for replied_at, latency_s in sorted(stats.replies):
        index = int(replied_at / SOCKET_SLICE_S)
        if index < len(slices):
            slices[index].append(latency_s * 1e3)
            last_reply[index] = replied_at
    if closed:
        # Replies come in bursts, one per tick: clocking a slice from the
        # previous slice's last reply to its own counts whole bursts only.
        rates = [
            len(latencies) / (ended - began)
            for latencies, began, ended
            in zip(slices, [0.0] + last_reply, last_reply)
            if latencies
        ]
    else:
        # An open loop commits what it is offered, slice by slice.
        rates = [stats.counts["committed"] / wall_s]
    return {
        "txn_per_wall_s": rates,
        "p50_ms": [percentile(latencies, 0.50) for latencies in slices],
        "p95_ms": [percentile(latencies, 0.95) for latencies in slices],
    }


def socket_counters(phase: dict, rate: float | None) -> dict:
    report, stats = phase["report"], phase["stats"]
    late_ms = [value * 1e3 for value in stats.late_s]
    rate_ok = (
        rate is not None and phase["failed"] == 0
        and percentile(phase["latencies_ms"], 0.95) <= 100.0
    )
    verify = phase["verify"] or {"ok": 0, "txn_per_wall_s": 0.0}
    return {
        "serve.core.txns_per_tick": report["accepted"] / max(1, report["ticks"]),
        "serve.driver.tick_rate_frac":
            report["ticks"] / (report["wall_s"] * 1e6 / report["epoch_us"]),
        "serve.driver.busy_frac": report["cpu_s"] / report["wall_s"],
        "serve.admission.shed": report["shed"],
        "serve.frontend.requests": report["requests"],
        "serve.frontend.errors": report["errors"],
        "serve.frontend.p99_ms": percentile(phase["latencies_ms"], 0.99),
        "serve.frontend.p99_samples": len(phase["latencies_ms"]),
        "serve.frontend.rate_ok": rate if rate_ok else 0.0,
        "serve.journal.bytes_per_txn":
            phase["journal_bytes"] / max(1, report["commits"]),
        "serve.replayer.verify_ok": int(verify["ok"]),
        "serve.replayer.txn_per_wall_s": verify["txn_per_wall_s"],
        "storage.store.memory_mb": report["memory_mb"],
        "loadgen.late_frac":
            sum(1 for value in late_ms if value > 1.0) / max(1, len(late_ms)),
        "loadgen.late_ms_p99": percentile(late_ms, 0.99),
    }


# ----------------------------------------------------------------------
# Serving without sockets: record a journal, then verify it
# ----------------------------------------------------------------------


def replay_round(args) -> dict:
    rng = random.Random(args.seed)
    num_keys = ServeConfig().num_keys
    slices = []
    for _ in range(max(1, int(args.seconds / REPLAY_SLICE_S))):
        ticks = []
        for _ in range(REPLAY_TICKS):
            requests = []
            for _ in range(REPLAY_TICK_REQUESTS):
                keys = sorted(rng.sample(range(num_keys), 4))
                request = {"reads": keys}
                if rng.random() < 0.8:
                    request["writes"] = keys[:2]
                requests.append(request)
            ticks.append(requests)
        slices.append(ticks)
    submitted = REPLAY_TICKS * REPLAY_TICK_REQUESTS
    journal = os.path.join(args.scratch, f"replay-{os.getpid()}.journal")
    setup_s = time.time() - args.launched

    def record(ticks: list, config: ServeConfig, path: str | None) -> tuple:
        """One journal's worth of ticks; the report and the timings."""
        tick_ms = []
        started = time.perf_counter()
        core = ServeCore(config, journal=JournalWriter(path) if path else None)
        for requests in ticks:
            before = time.perf_counter()
            core.tick(requests)
            tick_ms.append((time.perf_counter() - before) * 1e3)
        report = core.finish()
        return report, time.perf_counter() - started, tick_ms

    def record_and_verify(ticks: list) -> tuple:
        report, record_s, tick_ms = record(ticks, ServeConfig(), journal)
        started = time.perf_counter()
        verified = verify_journal(journal)
        return report, record_s, tick_ms, verified, time.perf_counter() - started

    samples = {"txn_per_wall_s": [], "p50_ms": [], "p95_ms": []}
    identity, problems, failed = [], [], 0
    record_total_s = verify_total_s = 0.0
    for ticks in slices:
        report, record_s, tick_ms, verified, verify_s = record_and_verify(ticks)
        record_total_s += record_s
        verify_total_s += verify_s
        samples["txn_per_wall_s"].append(report.commits / (record_s + verify_s))
        samples["p50_ms"].append(percentile(tick_ms, 0.50))
        samples["p95_ms"].append(percentile(tick_ms, 0.95))
        identity.append([report.commits, report.fingerprint, report.digest])
        failed += submitted - report.commits
        if report.commits != submitted:
            problems.append(f"committed {report.commits} of {submitted} submitted")
        if not verified.ok:
            problems.append("journal does not replay to its footer")
    out = {
        "setup_s": setup_s, "samples": samples, "identity": identity,
        "attempted": submitted * len(slices), "failed": failed,
        "problems": problems,
    }
    if args.trace:
        commits = submitted * len(slices)
        journal_bytes = os.path.getsize(journal)
        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        for ticks in slices:
            record_and_verify(ticks)
        profile.disable()
        traced_s = time.perf_counter() - started
        # Differential pass, warm like the profiled one: the same ticks with
        # the shipped config, without the digest, and without a journal.
        warm_s = sum(record(t, ServeConfig(), journal)[1] for t in slices)
        no_digest_s = sum(
            record(t, ServeConfig(digest=False), journal)[1] for t in slices
        )
        no_journal_s = sum(record(t, ServeConfig(), None)[1] for t in slices)
        layer = {
            "serve.core.txns_per_tick": REPLAY_TICK_REQUESTS,
            "serve.core.tick_txn_per_wall_s": commits / record_total_s,
            "serve.replayer.txn_per_wall_s": commits / verify_total_s,
            "serve.replayer.verify_ok": int(not problems),
            "serve.journal.bytes_per_txn": journal_bytes / submitted,
            "sanitize.digest.cost_frac": 1.0 - no_digest_s / warm_s,
            "serve.journal.cost_frac": 1.0 - no_journal_s / warm_s,
        }
        layer.update(profile_layers(
            layers.split(profile), traced_s, record_total_s + verify_total_s
        ))
        out["layer"] = layer
    os.remove(journal)
    return out


WORKLOADS = {
    "sim_tenant_hermes": lambda args: sim_round(args, "hermes"),
    "sim_tenant_calvin": lambda args: sim_round(args, "calvin"),
    "serve_open_r2000": lambda args: socket_round(args, 2_000.0),
    "serve_closed": lambda args: socket_round(args, None),
    "serve_replay": replay_round,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true",
                        help="replay this round's serve journal (costs a replay)")
    args = parser.parse_args()
    host_mops = calibrate() if args.trace else None
    out = WORKLOADS[args.workload](args)
    out.setdefault("peak_rss_mb", peak_rss_mb())
    if args.trace:
        out["layer"]["host.calib_mops"] = host_mops
    print(json.dumps(out))


if __name__ == "__main__":
    main()
