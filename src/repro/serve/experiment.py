"""The deterministic serving experiment behind the ``serving`` API kind.

Runs the same ``ServeCore`` tick loop the wall-clock driver paces, but
entirely under simulated time: arrivals are synthesized per tick from a
:class:`~repro.common.rng.DeterministicRNG`, journaled, executed, and
replayed from the journal and checked byte for byte against the live
run's fingerprint and digest.  This is the
tier-1-testable spine of the serving stack; the wall clock only ever
adds pacing on top (:mod:`repro.serve.driver`).
"""

from __future__ import annotations

import os
import tempfile

from repro.bench.harness import ExperimentResult, cluster_result
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRNG
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal

__all__ = ["serving_run"]

#: Keyspace, cluster width and tick length of a serving run.
NUM_KEYS = 10_000
NUM_NODES = 4
EPOCH_US = 5_000.0
#: Synthesized arrivals per simulated second, and the share of them that
#: are single-key read-modify-writes (the rest read two keys).
RATE_PER_S = 2_000.0
RW_RATIO = 0.2


def _synthesize_tick(rng: DeterministicRNG, per_tick: int) -> list[dict]:
    requests = []
    for _ in range(per_tick):
        if rng.random() < RW_RATIO:
            key = rng.randint(0, NUM_KEYS - 1)
            requests.append({"reads": [key], "writes": [key]})
        else:
            a = rng.randint(0, NUM_KEYS - 1)
            b = rng.randint(0, NUM_KEYS - 1)
            requests.append({"reads": sorted({a, b})})
    return requests


def serving_run(
    strategy: str,
    *,
    initial_nodes: int | None,
    duration_us: float,
    resizes: tuple[tuple[float, str, int], ...],
    seed: int,
) -> ExperimentResult:
    """One journaled serve run (simulated time), verified by replay.

    ``resizes`` holds ``(at_us, kind, node)`` elastic events, applied at
    the first tick whose window covers ``at_us``.  The journal is
    replayed in-process and a fingerprint or digest mismatch raises
    :class:`~repro.common.errors.SimulationError` — a serving experiment
    that cannot replay is a broken run, not a result.
    """
    config = ServeConfig(
        num_keys=NUM_KEYS,
        num_nodes=NUM_NODES,
        initial_nodes=initial_nodes,
        strategy=strategy,
        epoch_us=EPOCH_US,
    )
    handle, journal_path = tempfile.mkstemp(
        prefix=f"serve-{strategy}-", suffix=".jsonl"
    )
    os.close(handle)
    core = ServeCore(config, journal=JournalWriter(journal_path))
    rng = DeterministicRNG(seed, "serving", strategy)
    ticks = max(1, int(duration_us / EPOCH_US))
    per_tick = max(1, round(RATE_PER_S * EPOCH_US / 1e6))
    pending_resizes = sorted(resizes)
    try:
        for tick in range(ticks):
            tick_resizes = []
            window_end = (tick + 1) * EPOCH_US
            while pending_resizes and pending_resizes[0][0] < window_end:
                _at, kind, node = pending_resizes.pop(0)
                tick_resizes.append((kind, node))
            core.tick(
                _synthesize_tick(rng, per_tick),
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
        outcome = verify_journal(journal_path)
        if not outcome.ok:
            raise SimulationError(
                "serve journal failed replay verification: "
                + "; ".join(outcome.mismatches)
            )
        extras["journal_verified"] = True
    finally:
        os.unlink(journal_path)
    return cluster_result(strategy, core.cluster, report.duration_us, extras)
