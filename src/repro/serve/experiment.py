"""The deterministic serving experiment behind the ``serving`` API kind.

Runs the same ``ServeCore`` tick loop the wall-clock driver paces, but
entirely under simulated time: arrivals are synthesized per tick from a
:class:`~repro.common.rng.DeterministicRNG`, journaled, executed, and —
when ``verify=True`` — replayed from the journal and checked byte for
byte against the live run's fingerprint and digest.  This is the
tier-1-testable spine of the serving stack; the wall clock only ever
adds pacing on top (:mod:`repro.serve.driver`).
"""

from __future__ import annotations

import os
import tempfile

from repro.bench.harness import ExperimentResult
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRNG
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal

__all__ = ["serving_run"]


def _synthesize_tick(
    rng: DeterministicRNG,
    num_keys: int,
    per_tick: int,
    rw_ratio: float,
) -> list[dict]:
    requests = []
    for _ in range(per_tick):
        if rng.random() < rw_ratio:
            key = rng.randint(0, num_keys - 1)
            requests.append({"reads": [key], "writes": [key]})
        else:
            a = rng.randint(0, num_keys - 1)
            b = rng.randint(0, num_keys - 1)
            requests.append({"reads": sorted({a, b})})
    return requests


def serving_run(
    strategy: str,
    *,
    num_keys: int = 10_000,
    num_nodes: int = 4,
    initial_nodes: int | None = None,
    epoch_us: float = 5_000.0,
    duration_us: float = 1_000_000.0,
    rate_per_s: float = 2_000.0,
    rw_ratio: float = 0.2,
    resizes: tuple[tuple[float, str, int], ...] = (),
    seed: int = 7,
    verify: bool = True,
    journal_path: str | None = None,
) -> ExperimentResult:
    """One journaled serve run (simulated time), optionally verified.

    ``resizes`` holds ``(at_us, kind, node)`` elastic events, applied at
    the first tick whose window covers ``at_us``.  When ``verify`` is
    set the journal is replayed in-process and a fingerprint or digest
    mismatch raises :class:`~repro.common.errors.SimulationError` — a
    serving experiment that cannot replay is a broken run, not a result.
    """
    config = ServeConfig(
        num_keys=num_keys,
        num_nodes=num_nodes,
        initial_nodes=initial_nodes,
        strategy=strategy,
        epoch_us=epoch_us,
    )
    cleanup = journal_path is None
    if journal_path is None:
        handle, journal_path = tempfile.mkstemp(
            prefix=f"serve-{strategy}-", suffix=".jsonl"
        )
        os.close(handle)
    core = ServeCore(config, journal=JournalWriter(journal_path))
    rng = DeterministicRNG(seed, "serving", strategy)
    ticks = max(1, int(duration_us / epoch_us))
    per_tick = max(1, round(rate_per_s * epoch_us / 1e6))
    pending_resizes = sorted(resizes)
    try:
        for tick in range(ticks):
            tick_resizes = []
            window_end = (tick + 1) * epoch_us
            while pending_resizes and pending_resizes[0][0] < window_end:
                _at, kind, node = pending_resizes.pop(0)
                tick_resizes.append((kind, node))
            core.tick(
                _synthesize_tick(rng, num_keys, per_tick, rw_ratio),
                resizes=tick_resizes,
            )
        report = core.finish()
        extras = {
            "serve_ticks": report.ticks,
            "serve_accepted": report.accepted,
            "fingerprint": report.fingerprint,
            "digest": report.digest,
            "resizes": report.extras["resizes"],
            "active_nodes": report.extras["active_nodes"],
        }
        if verify:
            outcome = verify_journal(journal_path)
            if not outcome.ok:
                raise SimulationError(
                    "serve journal failed replay verification: "
                    + "; ".join(outcome.mismatches)
                )
            extras["journal_verified"] = True
    finally:
        if cleanup:
            os.unlink(journal_path)
    cluster = core.cluster
    metrics = cluster.metrics
    end = report.duration_us
    pcts = metrics.latency_percentiles_us((0.5, 0.95, 0.99))
    return ExperimentResult(
        strategy=strategy,
        commits=report.commits,
        duration_us=end,
        throughput_per_s=metrics.throughput_per_second(end),
        mean_latency_us=metrics.mean_latency_us(),
        latency_breakdown_us=metrics.latency.averages(),
        cpu_utilization=cluster.cpu_utilization(end),
        net_bytes_per_commit=cluster.network_bytes_per_commit(),
        remote_reads=metrics.remote_reads,
        writebacks=metrics.writebacks,
        evictions=metrics.evictions,
        throughput_series=metrics.throughput_series(end),
        latency_p50_us=pcts[0.5],
        latency_p95_us=pcts[0.95],
        latency_p99_us=pcts[0.99],
        extras=extras,
    )
