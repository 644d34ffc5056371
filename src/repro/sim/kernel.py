"""The discrete-event kernel: clock, event queues, and one-shot events.

Design notes
------------
* Events fire in ``(time, sequence)`` order.  The sequence number makes
  simultaneous events fire in scheduling order, which keeps the whole
  simulation deterministic without relying on heap implementation details.
* Everything the kernel runs is a callback: ``call_soon`` (now, after
  what is pending), ``call_later`` / ``call_at`` (a cancellable timer)
  and ``call_later_unhandled`` (a timer nobody cancels).  A simulated
  activity is a chain of such callbacks, each scheduling the next.
* A :class:`SimEvent` is a one-shot gate a chain parks on: triggering it
  schedules every waiter through ``call_soon``.  It carries no value;
  whatever a waiter needs it reads from the object it belongs to.
* There is no pre-emption; a callback runs to completion.  All CPU-time
  accounting is therefore explicit timers (the engine's worker pools).
* One dispatch loop serves both entry points: ``run_until(t)`` fires
  everything due by ``t`` and then moves the clock to ``t``; ``run()``
  fires everything, with no bound, and leaves the clock at the last
  event.

Fast path
---------
Zero-delay callbacks (``call_soon``) — every chain hop and event
trigger — dominate kernel traffic, so they bypass
the timer heap entirely: they go onto a FIFO run-queue (a deque) and pop
in O(1) instead of paying an O(log n) heap sift against thousands of
pending timers.  Determinism is preserved bit for bit because both
structures are ordered by the same global ``(time, sequence)`` key: the
run-queue is naturally sorted (entries are stamped with the current time
and an ever-increasing sequence number), and the dispatch loop always
pops whichever structure holds the smaller key — exactly the order the
single-heap kernel produced.

``call_later`` returns a :class:`TimerHandle`; ``cancel()`` marks the
entry dead and it is skipped (and its callback reference dropped) when
it reaches the top of the heap, so retry timeouts and fault windows no
longer cost a dispatch when they are disarmed.  When dead entries pile
up faster than they surface, the heap is compacted in place.

Collector pause
---------------
``run`` and ``run_until`` switch CPython's cyclic garbage collector off
for the length of the dispatch loop and back on when it exits (only if
it was on).  The hot path allocates runtimes, tuples and closures by
the hundred thousand, and those allocations used to set off collector
passes (the full ones scanning every live object) that found nothing:
the event loop creates no reference cycles, and
``tests/sim/test_collector.py`` holds it to that.  Reference counting
frees everything the loop drops.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable

from repro.common.errors import SimulationError

#: When set, every new :class:`Kernel` attaches ``_digest_factory()`` at
#: construction.  Installed by :func:`repro.sanitize.digest.capture_digests`
#: so the dual-replay harness can fingerprint runs without threading a
#: digest through every experiment entry point; ``None`` (the default)
#: keeps kernels digest-free.
_digest_factory: Callable[[], Any] | None = None


def set_digest_factory(factory: Callable[[], Any] | None) -> None:
    """Install (or clear) the auto-attach digest factory for new kernels."""
    global _digest_factory
    _digest_factory = factory


def get_digest_factory() -> Callable[[], Any] | None:
    """The currently installed auto-attach digest factory, if any."""
    return _digest_factory


class TimerHandle:
    """A cancellable ``call_later`` registration.

    ``cancel()`` is idempotent and O(1): the heap entry stays put but is
    marked dead and skipped on pop.  Cancelling an already-fired timer
    is a no-op.
    """

    __slots__ = ("kernel", "when", "fn", "args", "cancelled")

    def __init__(
        self, kernel: "Kernel", when: float, fn: Callable, args: tuple
    ) -> None:
        self.kernel = kernel
        self.when = when
        self.fn: Callable | None = fn
        self.args: tuple | None = args
        self.cancelled = False

    def cancel(self) -> None:
        """Disarm the timer; its callback will never run."""
        if self.cancelled or self.fn is None:
            return
        self.cancelled = True
        # Drop references so cancelled retry closures (and whatever they
        # capture — records, clusters) are collectable immediately.
        self.fn = None
        self.args = None
        kernel = self.kernel
        kernel._dead += 1
        if (
            kernel._dead > kernel._COMPACT_MIN_DEAD
            and kernel._dead * 2 > len(kernel._heap)
        ):
            kernel._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else f"at {self.when}"
        return f"TimerHandle({state})"


class SimEvent:
    """A one-shot event callback chains can park on.

    ``trigger()`` schedules every waiter through ``call_soon``, in
    registration order; a waiter added after the trigger is scheduled
    at once.  Waiters are called with no arguments.
    """

    __slots__ = ("kernel", "_waiters", "triggered")

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._waiters: list[Callable[[], None]] = []
        self.triggered = False

    def trigger(self) -> None:
        """Fire the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.kernel.call_soon(waiter)

    def add_waiter(self, callback: Callable[[], None]) -> None:
        """Register a callback; scheduled at once if already triggered."""
        if self.triggered:
            self.kernel.call_soon(callback)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"SimEvent({state})"


class Kernel:
    """Deterministic event loop with a simulated clock in microseconds.

    Two queues, one order.  ``call_soon`` entries land on ``_runq`` (a
    FIFO deque) and ``call_later`` entries on ``_heap``; both carry the
    global ``(when, seq)`` key and the dispatch loop pops whichever head
    is smaller.  The run-queue is sorted by construction: it is only
    ever appended to at the current time with a fresh sequence number,
    and the clock never moves backwards.  Sequence numbers are unique
    across both queues, so the tuple comparison never ties (and never
    reaches the uncomparable handle/args slot).
    """

    #: With a digest attached, have it hash what is pending whenever a
    #: run loop's event count has these bits clear: every 1024 events.
    _DIGEST_BLOCK_MASK = 1023

    #: Compact the timer heap when more than this many cancelled entries
    #: are buried in it *and* they outnumber the live ones.  Small runs
    #: never compact; pathological cancel-heavy runs stay O(live).
    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._runq: deque[tuple[float, int, Callable, tuple]] = deque()
        self._seq = 0
        self._dead = 0
        self._running = False
        self.events_processed = 0
        #: optional event-stream digest (see :mod:`repro.sanitize.digest`).
        #: ``None`` keeps the dispatch loop on a single local ``None``
        #: check per event.
        self._digest: Any = (
            _digest_factory() if _digest_factory is not None else None
        )

    # -- scheduling ----------------------------------------------------------

    def call_later(self, dt: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``dt`` simulated microseconds.

        Returns a :class:`TimerHandle`; keep it only if the timer might
        need cancelling (retry timeouts, fault windows).
        """
        if dt < 0:
            raise SimulationError(f"cannot schedule {dt} in the past")
        self._seq += 1
        handle = TimerHandle(self, self.now + dt, fn, args)
        heapq.heappush(self._heap, (handle.when, self._seq, handle))
        return handle

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after pending events."""
        self._seq += 1
        self._runq.append((self.now, self._seq, fn, args))

    def call_later_unhandled(self, dt: float, fn: Callable, *args: Any) -> None:
        """``call_later`` without the cancellation handle.

        For timers that are never cancelled — network transfer
        deliveries, worker completions, a driver's next arrival — this
        skips the :class:`TimerHandle` allocation.  The heap entry is a
        4-tuple ``(when, seq, fn, args)`` next to the 3-tuple handle
        entries; comparisons still resolve at the unique sequence
        number, and the dispatch loop tells the two shapes apart by
        length.
        """
        if dt < 0:
            raise SimulationError(f"cannot schedule {dt} in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + dt, self._seq, fn, args))

    def call_at(self, t: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute simulated time ``t``.

        A time at or before the current clock runs as soon as possible
        (the fault injector uses this to activate windows that were
        already open when a recovered cluster resumes).
        """
        return self.call_later(max(0.0, t - self.now), fn, *args)

    def event(self) -> SimEvent:
        """Create a fresh one-shot event bound to this kernel."""
        return SimEvent(self)

    @property
    def digest(self) -> Any:
        """The attached event-stream digest, or ``None``.

        Engine components tap semantic boundaries through this handle
        with the same guard discipline the tracer uses::

            dg = self.kernel.digest
            if dg is not None:
                dg.note("seq.cut", epoch, n)
        """
        return self._digest

    def attach_digest(self, digest: Any) -> None:
        """Attach an event-stream digest to this kernel.

        Takes effect for events dispatched by the *next* ``run`` /
        ``run_until`` call (the loop hoists the digest reference once per
        call, like its other hot locals).
        """
        self._digest = digest

    def timestamp(self) -> float:
        """The current simulated time, in microseconds.

        The observability layer's clock source: a bound
        :class:`repro.obs.tracer.Tracer` stamps every span and event through
        this hook, so traces share the exact timeline the engine ran on.
        Reading the clock never perturbs the event queues.
        """
        return self.now

    # -- internals -----------------------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Rebuilds strictly in place: the dispatch loop holds a local
        alias to the heap list, and cancellation (hence compaction) can
        fire mid-dispatch.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._dead = 0

    # -- execution -----------------------------------------------------------
    #
    # ``_dispatch`` is the hottest code in the simulator, hence the local
    # aliasing and inlined pops.  Full-tuple ``runq[0] < heap[0]``
    # comparison is safe: sequence numbers are unique across both
    # queues, so it resolves at slot 1 and never reaches the
    # uncomparable callback/handle slot.  Heap entries come in two
    # shapes — ``(when, seq, handle)`` from ``call_later`` and
    # ``(when, seq, fn, args)`` from ``call_later_unhandled`` — told
    # apart by length.  With a digest attached an event costs two
    # C-level list appends (``fold``), or a ``tap`` call when the digest
    # records lines, and the digest hashes what is pending every 1024
    # events and when the loop exits (see
    # :class:`repro.sanitize.digest.StreamDigest`).

    def run_until(self, t_end: float) -> None:
        """Advance simulated time to ``t_end``, firing all due events."""
        self._dispatch(t_end)
        self.now = max(self.now, t_end)

    def run(self) -> None:
        """Run until no events remain; the clock stays at the last one."""
        self._dispatch(math.inf)

    def _dispatch(self, t_end: float) -> None:
        """Fire every event due at or before ``t_end`` in key order."""
        if self._running:
            raise SimulationError("kernel is already running")
        self._running = True
        runq, heap = self._runq, self._heap
        popleft = runq.popleft
        heappop = heapq.heappop
        digest = self._digest
        fold = None if digest is None or digest.record else digest.fold
        block_mask = self._DIGEST_BLOCK_MASK
        processed = 0
        collector_on = gc.isenabled()
        gc.disable()
        try:
            while True:
                if runq and (not heap or runq[0] < heap[0]):
                    when, seq, fn, args = runq[0]
                    if when > t_end:
                        break
                    popleft()
                elif heap:
                    entry = heap[0]
                    when = entry[0]
                    if when > t_end:
                        break
                    heappop(heap)
                    seq = entry[1]
                    if len(entry) == 4:
                        fn, args = entry[2], entry[3]
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._dead -= 1
                            continue
                        fn, args = handle.fn, handle.args
                else:
                    break
                self.now = when
                processed += 1
                if digest is not None:
                    if fold is not None:
                        fold(when)
                        fold(seq)
                    else:
                        digest.tap(when, seq, fn, args)
                    if not processed & block_mask:
                        digest.fold_block()
                fn(*args)
        finally:
            if collector_on:
                gc.enable()
            self.events_processed += processed
            self._running = False
            if digest is not None:
                digest.fold_block()

    def pending(self) -> int:
        """Number of live events still queued (cancelled timers excluded)."""
        return len(self._runq) + len(self._heap) - self._dead

    def clear(self) -> None:
        """Drop every pending event without running it.

        A queued entry holds a client of the kernel (a timer handle, a
        chain hop, the sequencer's next cut) and that client holds
        the kernel, so a kernel with anything pending sits in reference
        cycles.  Clearing the queues is what lets a finished owner be
        freed by reference counting (see
        :meth:`repro.engine.cluster.Cluster.close`).
        """
        self._runq.clear()
        self._heap.clear()
        self._dead = 0
