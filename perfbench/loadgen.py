"""Benchmark-owned load generators for the JSON-lines serving front door.

Two clients, both over plain TCP connections from one process:

* **open loop** (independent users): every request has a *due time*
  drawn from a seeded Poisson schedule before the phase starts.  The
  sender writes whatever is due and never awaits ``drain()``, so a slow
  server cannot slow the arrivals down; latency is clocked from the due
  time, and how late the sender itself ran is recorded.
* **closed loop** (callers that wait for replies): each connection keeps
  a fixed window of requests outstanding and sends one more for every
  reply, so the measured rate is the server's saturation capacity.

Request bodies are generated from ``seed`` and the connection number
before the timed phase; the server only ever sees generated inputs.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

__all__ = ["ClientStats", "make_bodies", "make_schedule", "run_phase"]

#: Replies still missing this long after the last send count as failed.
UNANSWERED_AFTER_S = 10.0

_STATUSES = ("committed", "aborted", "shed", "error")


def make_bodies(rng: random.Random, count: int, num_keys: int) -> list[bytes]:
    """Request bodies without their tag: 80 % 2-key reads, 20 % 1-key RMW."""
    bodies = []
    for _ in range(count):
        if rng.random() < 0.2:
            key = rng.randrange(num_keys)
            bodies.append(b'"reads":[%d],"writes":[%d]}\n' % (key, key))
        else:
            keys = sorted({rng.randrange(num_keys), rng.randrange(num_keys)})
            bodies.append(
                b'"reads":%s,"writes":[]}\n'
                % json.dumps(keys, separators=(",", ":")).encode()
            )
    return bodies


def make_schedule(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Poisson due times (seconds from phase start) within ``seconds``."""
    due, now = [], rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due


@dataclass
class ClientStats:
    """What one connection saw; merged across connections by the caller."""

    sent: int = 0
    counts: dict = field(default_factory=lambda: dict.fromkeys(_STATUSES, 0))
    #: per committed reply: (when it arrived, how long after its clock
    #: started: the due time in an open loop, the send in a closed one).
    replies: list = field(default_factory=list)
    #: open loop only, per request: how long after its due time it was sent.
    late_s: list = field(default_factory=list)
    last_reply_at: float = 0.0

    @property
    def unanswered(self) -> int:
        return self.sent - sum(self.counts.values())

    def merge(self, other: "ClientStats") -> None:
        self.sent += other.sent
        for status, count in other.counts.items():
            self.counts[status] += count
        self.replies.extend(other.replies)
        self.late_s.extend(other.late_s)
        self.last_reply_at = max(self.last_reply_at, other.last_reply_at)


class _Connection:
    """One TCP connection: tags requests, matches replies, keeps stats."""

    def __init__(self, reader, writer, bodies: list[bytes]) -> None:
        self.reader = reader
        self.writer = writer
        self.bodies = bodies
        self.stats = ClientStats()
        self.clock_from: dict[int, float] = {}
        self.on_reply = None

    def send(self, first: int, count: int, clock_from: list[float]) -> None:
        """Write requests ``first..first+count`` in one call, no drain."""
        bodies = self.bodies
        size = len(bodies)
        self.writer.write(b"".join(
            b'{"tag":%d,' % tag + bodies[tag % size]
            for tag in range(first, first + count)
        ))
        for offset, started in enumerate(clock_from):
            self.clock_from[first + offset] = started
        self.stats.sent += count

    async def read_replies(self) -> None:
        stats = self.stats
        pending = self.clock_from
        buffer = b""
        while True:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                return
            now = time.perf_counter()
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                reply = json.loads(line)
                status = reply.get("status")
                stats.counts[status if status in stats.counts else "error"] += 1
                started = pending.pop(reply.get("tag"), None)
                if started is not None and status == "committed":
                    stats.replies.append((now, now - started))
            stats.last_reply_at = now
            if self.on_reply is not None:
                self.on_reply(len(lines), now)


async def _open_loop(conn: _Connection, due: list[float], start: float) -> None:
    sent, total = 0, len(due)
    while sent < total:
        now = time.perf_counter() - start
        if due[sent] > now:
            await asyncio.sleep(due[sent] - now)
            now = time.perf_counter() - start
        upto = sent
        while upto < total and due[upto] <= now:
            upto += 1
        batch = due[sent:upto]
        conn.send(sent, len(batch), [start + at for at in batch])
        conn.stats.late_s.extend(now - at for at in batch)
        sent = upto


async def _closed_loop(conn: _Connection, window: int, end_at: float) -> None:
    done = asyncio.Event()

    def refill(replies: int, now: float) -> None:
        if now < end_at:
            conn.send(conn.stats.sent, replies, [now] * replies)
        elif conn.stats.unanswered == 0:
            done.set()

    conn.on_reply = refill
    conn.send(0, window, [time.perf_counter()] * window)
    await done.wait()


async def run_phase(
    host: str,
    port: int,
    bodies: list[list[bytes]],
    seconds: float,
    *,
    schedules: list[list[float]] | None = None,
    window: int = 0,
) -> tuple[ClientStats, float]:
    """Drive one timed phase; returns merged stats and the phase's wall.

    One connection per entry of ``bodies``.  With ``schedules`` the phase
    is open loop (one due-time list per connection); otherwise it is
    closed loop with ``window`` requests outstanding per connection.  The
    wall runs from the first send to the last reply, and reply times come
    back relative to the first send.
    """
    conns = []
    for conn_bodies in bodies:
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(_Connection(reader, writer, conn_bodies))
    readers = [asyncio.ensure_future(conn.read_replies()) for conn in conns]
    start = time.perf_counter()
    if schedules is not None:
        senders = [
            _open_loop(conn, due, start) for conn, due in zip(conns, schedules)
        ]
    else:
        senders = [_closed_loop(conn, window, start + seconds) for conn in conns]

    async def until_answered() -> None:
        await asyncio.gather(*senders)
        while any(conn.stats.unanswered for conn in conns):
            await asyncio.sleep(0.005)

    try:
        await asyncio.wait_for(
            until_answered(), timeout=seconds + UNANSWERED_AFTER_S
        )
    except asyncio.TimeoutError:
        pass
    for conn in conns:
        conn.writer.close()
    await asyncio.gather(*readers)
    merged = ClientStats()
    for conn in conns:
        merged.merge(conn.stats)
    merged.replies = [(at - start, latency) for at, latency in merged.replies]
    return merged, max(merged.last_reply_at - start, 1e-9)
