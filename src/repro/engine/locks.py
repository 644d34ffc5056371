"""Conservative ordered locking (deterministic, deadlock-free).

Calvin-family systems acquire every lock a transaction needs *before*
execution, in the global total order.  Because requests enter each key's
queue in total order and are granted strictly FIFO (shared locks coalesce,
exclusive locks serialize), there are no deadlocks and no non-deterministic
aborts — but any stall by a lock holder blocks all conflicting successors,
which is exactly the "clogging" behaviour the paper describes and the
routing strategies fight over.

The manager is logically distributed (each node owns the queues for its
records) but implemented as one object: in a deterministic system every
replica's queues evolve identically, so one instance *is* the replicated
state.  Callers must enqueue requests in total order; the manager enforces
this with a monotonic sequence check.

Implementation note: each key keeps its *granted holders* (a dict, with a
count of exclusive holders) separate from its FIFO *waiting* deque, so
enqueue, grant, and release are all O(1) amortized — hot keys in skewed
workloads build queues tens of thousands deep, and anything that rescans
the queue per operation is quadratic in practice.
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Callable

from repro.common.errors import SimulationError
from repro.common.types import Key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

#: Max blocker seqs recorded per traced wait.  Wide shared coalitions
#: are summarized by the holder count instead of an unbounded list.
_MAX_BLOCKERS = 8


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write / migrate) access."""

    S = "S"
    X = "X"


_XM = LockMode.X

#: Cap on pooled (empty) key queues kept for reuse.  Uniform workloads
#: churn one queue per key per transaction; reusing the dict/deque pair
#: keeps the dominant lock path allocation-free.
_POOL_MAX = 512


class _Request:
    __slots__ = (
        "seq", "mode", "on_granted", "wait_from", "blockers", "holders_seen"
    )

    def __init__(
        self, seq: int, mode: LockMode, on_granted: Callable[[], None]
    ) -> None:
        self.seq = seq
        self.mode = mode
        self.on_granted = on_granted
        # Tracing-only fields, populated when a tracer is attached and
        # the request actually waits: enqueue timestamp, the seqs it was
        # directly behind (current holders and the waiter ahead, capped
        # at ``_MAX_BLOCKERS``), and the uncapped holder count.
        self.wait_from: float | None = None
        self.blockers: list[int] | None = None
        self.holders_seen = 0


class _KeyQueue:
    __slots__ = ("holders", "exclusive_holders", "waiting", "last_enqueued")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        self.exclusive_holders = 0
        self.waiting: deque[_Request] = deque()
        self.last_enqueued = -1


class LockManager:
    """Per-key FIFO queues with S/X modes and in-order grants."""

    def __init__(
        self, tracer: "Tracer | None" = None, digest: object | None = None
    ) -> None:
        self._queues: dict[Key, _KeyQueue] = {}
        self._pool: list[_KeyQueue] = []
        self.grants_total = 0
        self.waits_total = 0
        self.tracer = tracer
        #: optional event-stream digest (the lock manager has no kernel
        #: reference, so the cluster hands the kernel's digest in).
        self.digest = digest

    def enqueue(
        self,
        seq: int,
        key: Key,
        mode: LockMode,
        on_granted: Callable[[], None],
    ) -> None:
        """Request ``key`` in ``mode`` for the transaction at order ``seq``.

        ``on_granted`` fires synchronously if the lock is immediately
        available, otherwise when earlier holders release.  Requests for
        one key must arrive in increasing ``seq`` — the scheduler drives
        this from the totally ordered plan, and violating it would break
        determinism, so it is an error rather than a wait.  ``on_granted``
        callbacks must not call back into the lock manager synchronously.
        """
        queue = self._queues.get(key)
        if queue is None:
            pool = self._pool
            queue = pool.pop() if pool else _KeyQueue()
            self._queues[key] = queue
        if seq <= queue.last_enqueued:
            raise SimulationError(
                f"lock requests for {key!r} out of order: {seq} after "
                f"{queue.last_enqueued}"
            )
        queue.last_enqueued = seq
        holders = queue.holders
        if not queue.waiting and (
            not holders if mode is _XM else queue.exclusive_holders == 0
        ):
            # Immediate grant: no wait bookkeeping, no _Request object.
            holders[seq] = mode
            if mode is _XM:
                queue.exclusive_holders += 1
            self.grants_total += 1
            digest = self.digest
            if digest is not None:
                digest.note("lock.grant", seq, mode.value, key)
            on_granted()
        else:
            request = _Request(seq, mode, on_granted)
            tracer = self.tracer
            if tracer is not None:
                # Record who this request is directly behind *now*; the
                # wait span itself is emitted at grant time.  Blockers
                # always carry smaller seqs (in-order enqueue), which is
                # what keeps reconstructed wait chains acyclic.  Holders
                # iterate in ascending seq (FIFO grants of in-order
                # requests; releases never reorder survivors), so the
                # first ``_MAX_BLOCKERS`` iterated *are* the smallest —
                # only the capped snapshot is ever sorted.
                request.wait_from = tracer.now()
                blockers = sorted(islice(holders, _MAX_BLOCKERS))
                if queue.waiting and len(blockers) < _MAX_BLOCKERS:
                    blockers.append(queue.waiting[-1].seq)
                request.blockers = blockers
                request.holders_seen = len(holders)
            queue.waiting.append(request)
            self.waits_total += 1

    def release(self, seq: int, key: Key) -> None:
        """Release the lock held on ``key`` by the transaction at ``seq``."""
        queue = self._queues.get(key)
        if queue is None:
            raise SimulationError(f"release of {key!r} with empty queue")
        mode = queue.holders.pop(seq, None)
        if mode is None:
            raise SimulationError(
                f"txn seq {seq} does not hold a granted lock on {key!r}"
            )
        if mode is _XM:
            queue.exclusive_holders -= 1
        waiting = queue.waiting
        if waiting:
            grant = self._grant
            while waiting and self._compatible(queue, waiting[0].mode):
                grant(queue, waiting.popleft(), key)
        if not queue.holders and not waiting:
            del self._queues[key]
            pool = self._pool
            if len(pool) < _POOL_MAX:
                queue.last_enqueued = -1
                pool.append(queue)

    @staticmethod
    def _compatible(queue: _KeyQueue, mode: LockMode) -> bool:
        if mode is LockMode.X:
            return not queue.holders
        return queue.exclusive_holders == 0

    def _grant(self, queue: _KeyQueue, request: _Request, key: Key) -> None:
        queue.holders[request.seq] = request.mode
        if request.mode is LockMode.X:
            queue.exclusive_holders += 1
        self.grants_total += 1
        digest = self.digest
        if digest is not None:
            # Grant order is where clogging (and any reordering bug in
            # the scheduler above) becomes externally visible.
            digest.note("lock.grant", request.seq, request.mode.value, key)
        if request.wait_from is not None:
            tracer = self.tracer
            if tracer is not None:
                tracer.lock_wait(
                    key,
                    request.seq,
                    request.mode.value,
                    request.blockers or [],
                    request.holders_seen,
                    request.wait_from,
                )
        request.on_granted()

    # -- introspection (tests, invariant checks) ---------------------------

    def holders(self, key: Key) -> list[tuple[int, LockMode]]:
        """(seq, mode) of current granted holders of ``key``."""
        queue = self._queues.get(key)
        if queue is None:
            return []
        return sorted(queue.holders.items())

    def queue_length(self, key: Key) -> int:
        """Total requests (granted + waiting) queued on ``key``."""
        queue = self._queues.get(key)
        if queue is None:
            return 0
        return len(queue.holders) + len(queue.waiting)

    def outstanding(self) -> int:
        """Number of keys with any queued request (leak detector)."""
        return len(self._queues)
