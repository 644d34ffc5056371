"""Wall-clock load generator for the serving front door.

Drives a live :class:`~repro.serve.frontend.Frontend` over real TCP
sockets with open-loop clients, then reports the repo's first
wall-clock headline numbers: sustained committed txn/s and end-to-end
p50/p95/p99 request latency (send to commit response).

Key choice and pacing come from :class:`~repro.common.rng.
DeterministicRNG` seeded per connection, so two loadgen runs against
the same server config submit statistically identical traffic; the
*arrival interleaving* is still wall-clock real, which is exactly what
the journal captures and the replayer reproduces.

Scenario knobs:

* ``flash_crowd_at_s`` — a hot-key storm: for ``flash_crowd_s``
  seconds the send rate multiplies and every request lands in the
  bottom :data:`HOT_SPAN` keys, exercising admission control and (under
  prescient strategies) live re-fusion of the hot range.
* ``resizes`` — elastic events ``(at_s, "add"|"remove", node)``
  applied under load through the journaled resize path.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.driver import ServeDriver
from repro.serve.frontend import Frontend
from repro.serve.journal import JournalWriter

__all__ = ["LoadgenConfig", "LoadgenReport", "run_loadgen"]

#: Keys per read-only request.
READS_PER_TXN = 2

#: How long a client waits for its outstanding replies after sending.
DRAIN_TIMEOUT_S = 30.0

#: A flash crowd's requests all land in keys ``[0, HOT_SPAN)``.
HOT_SPAN = 256


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    duration_s: float = 12.0
    rate_per_s: float = 1_000.0
    connections: int = 4
    #: fraction of requests that write (single-key read-modify-write).
    rw_ratio: float = 0.2
    seed: int = 7
    #: flash crowd: at this second, rate multiplies and all traffic
    #: lands in the bottom :data:`HOT_SPAN` keys.
    flash_crowd_at_s: float | None = None
    flash_crowd_s: float = 2.0
    flash_crowd_multiplier: float = 4.0
    #: elastic events: (at_s, "add" | "remove", node).
    resizes: tuple[tuple[float, str, int], ...] = ()
    journal_path: str | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be > 0")
        if self.connections < 1:
            raise ConfigurationError("connections must be >= 1")
        if self.rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be > 0")


@dataclass(slots=True)
class LoadgenReport:
    """Wall-clock results plus the deterministic serve-side report."""

    duration_s: float
    sent: int
    committed: int
    aborted: int
    shed: int
    errors: int
    sustained_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    serve: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "sent": self.sent,
            "committed": self.committed,
            "aborted": self.aborted,
            "shed": self.shed,
            "errors": self.errors,
            "sustained_per_s": self.sustained_per_s,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "serve": self.serve,
        }

    def summary(self) -> str:
        return (
            f"loadgen: {self.sustained_per_s:,.0f} txn/s sustained over "
            f"{self.duration_s:.1f}s wall "
            f"({self.committed} committed, {self.aborted} aborted, "
            f"{self.shed} shed, {self.errors} errors)\n"
            f"latency: p50 {self.p50_ms:.1f} ms · "
            f"p95 {self.p95_ms:.1f} ms · p99 {self.p99_ms:.1f} ms"
        )


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(q * (len(sorted_values) - 1))
    )
    return sorted_values[index]


async def _client(
    conn_id: int,
    host: str,
    port: int,
    serve_config: ServeConfig,
    load_config: LoadgenConfig,
    end_at: float,
    stats: dict,
) -> None:
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(host, port)
    rng = DeterministicRNG(load_config.seed, "loadgen", conn_id)
    rate = load_config.rate_per_s / load_config.connections
    num_keys = serve_config.num_keys
    hot_span = min(HOT_SPAN, num_keys)
    outstanding: dict[int, float] = {}
    send_done = asyncio.Event()

    flash_from = load_config.flash_crowd_at_s
    flash_to = (
        flash_from + load_config.flash_crowd_s
        if flash_from is not None
        else None
    )
    started = loop.time()

    async def read_responses() -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            response = json.loads(line)
            status = response.get("status")
            sent_at = outstanding.pop(response.get("tag"), None)
            if sent_at is not None and status == "committed":
                stats["latencies"].append(loop.time() - sent_at)
            if status == "committed":
                stats["committed"] += 1
            elif status == "aborted":
                stats["aborted"] += 1
            elif status == "shed":
                stats["shed"] += 1
            else:
                stats["errors"] += 1
            if send_done.is_set() and not outstanding:
                break

    reads_task = asyncio.ensure_future(read_responses())
    tag = 0
    next_at = loop.time()
    while True:
        now = loop.time()
        if now >= end_at:
            break
        elapsed = now - started
        in_flash = (
            flash_from is not None and flash_from <= elapsed < flash_to
        )
        effective = rate * (
            load_config.flash_crowd_multiplier if in_flash else 1.0
        )
        gap = rng.expovariate(effective)
        next_at += gap
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if in_flash:
            keys = [rng.randint(0, hot_span - 1)]
            writes: list[int] = []
        elif rng.random() < load_config.rw_ratio:
            keys = [rng.randint(0, num_keys - 1)]
            writes = list(keys)
        else:
            keys = sorted({
                rng.randint(0, num_keys - 1)
                for _ in range(READS_PER_TXN)
            })
            writes = []
        tag += 1
        outstanding[tag] = loop.time()
        message = {"tag": tag, "reads": keys, "writes": writes}
        writer.write((json.dumps(message) + "\n").encode())
        await writer.drain()
        stats["sent"] += 1
    send_done.set()
    if not outstanding:
        reads_task.cancel()
    try:
        await asyncio.wait_for(reads_task, timeout=DRAIN_TIMEOUT_S)
    except (asyncio.TimeoutError, asyncio.CancelledError):
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def run_loadgen(
    serve_config: ServeConfig,
    load_config: LoadgenConfig,
) -> LoadgenReport:
    """Stand up server + clients in-process and measure a full run."""
    journal = (
        JournalWriter(load_config.journal_path)
        if load_config.journal_path is not None
        else None
    )
    core = ServeCore(serve_config, journal=journal)
    driver = ServeDriver(core)
    frontend = Frontend(driver)
    host, port = await frontend.start()
    loop = asyncio.get_running_loop()
    driver_task = asyncio.ensure_future(driver.run())
    for at_s, kind, node in load_config.resizes:
        loop.call_later(at_s, driver.schedule_resize, kind, node)

    stats = {
        "sent": 0, "committed": 0, "aborted": 0, "shed": 0,
        "errors": 0, "latencies": [],
    }
    started = loop.time()
    end_at = started + load_config.duration_s
    clients = [
        _client(
            conn_id, host, port, serve_config, load_config, end_at, stats
        )
        for conn_id in range(load_config.connections)
    ]
    await asyncio.gather(*clients)
    wall_s = loop.time() - started
    driver.stop()
    report = await driver_task
    await frontend.stop()

    latencies = sorted(stats["latencies"])
    return LoadgenReport(
        duration_s=wall_s,
        sent=stats["sent"],
        committed=stats["committed"],
        aborted=stats["aborted"],
        shed=stats["shed"],
        errors=stats["errors"],
        sustained_per_s=(
            stats["committed"] / wall_s if wall_s > 0 else 0.0
        ),
        p50_ms=_percentile(latencies, 0.50) * 1e3,
        p95_ms=_percentile(latencies, 0.95) * 1e3,
        p99_ms=_percentile(latencies, 0.99) * 1e3,
        serve={
            "ticks": report.ticks,
            "accepted": report.accepted,
            "commits": report.commits,
            "sim_duration_us": report.duration_us,
            "fingerprint": report.fingerprint,
            "digest": report.digest,
            **report.extras,
        },
    )
