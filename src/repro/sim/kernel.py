"""The discrete-event kernel: clock, event heap, and processes.

Design notes
------------
* Events fire in ``(time, sequence)`` order.  The sequence number makes
  simultaneous events fire in scheduling order, which keeps the whole
  simulation deterministic without relying on heap implementation details.
* A :class:`Process` wraps a generator.  The generator yields:
    - ``Delay(dt)``      — resume after ``dt`` simulated microseconds,
    - ``SimEvent``       — resume when the event is triggered; the
      triggered value is sent back into the generator,
    - ``AllOf(events)``  — resume when every listed event has triggered.
  Returning from the generator completes the process's ``done`` event.
* There is no pre-emption; a process runs until its next yield.  All
  CPU-time accounting is therefore explicit ``Delay`` yields.

Fast path
---------
Zero-delay callbacks (``call_soon``) — every process step, event
trigger, and ``AllOf`` waiter — dominate kernel traffic, so they bypass
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
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

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


class Delay:
    """Yielded by a process to consume ``dt`` of simulated time."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        if dt < 0:
            raise SimulationError(f"cannot delay by negative time {dt}")
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.dt})"


class SimEvent:
    """A one-shot event processes can wait on.

    ``trigger(value)`` wakes every waiter and stores the value; waiting on
    an already-triggered event resumes immediately with the stored value.
    """

    __slots__ = ("kernel", "_waiters", "triggered", "value", "name")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.kernel.call_soon(waiter, value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register a callback; fires immediately if already triggered."""
        if self.triggered:
            self.kernel.call_soon(callback, self.value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"SimEvent({self.name!r}, {state})"


class AllOf:
    """Yielded by a process to wait for several events at once.

    The process resumes with a list of the events' values, in the order
    the events were given.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]) -> None:
        self.events = list(events)


class Process:
    """A generator-based simulated process."""

    __slots__ = ("kernel", "gen", "done", "name")

    def __init__(
        self,
        kernel: "Kernel",
        gen: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.kernel = kernel
        self.gen = gen
        self.name = name
        self.done = SimEvent(kernel, name=("done:" + name) if name else "")
        kernel.call_soon(self._step, None)

    def _step(self, value: Any) -> None:
        try:
            yielded = self.gen.send(value)
        except StopIteration as stop:
            self.done.trigger(stop.value)
            return
        # Checked most-frequent first: executor processes mostly wait on
        # events; explicit Delay yields are rarer, AllOf rarer still.
        if isinstance(yielded, SimEvent):
            yielded.add_waiter(self._step)
        elif isinstance(yielded, Delay):
            self.kernel.call_later_unhandled(yielded.dt, self._step, None)
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.events)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"
            )

    def _wait_all(self, events: list[SimEvent]) -> None:
        if not events:
            self.kernel.call_soon(self._step, [])
            return
        remaining = len(events)
        results: list[Any] = [None] * len(events)

        def make_waiter(index: int) -> Callable[[Any], None]:
            def waiter(value: Any) -> None:
                nonlocal remaining
                results[index] = value
                remaining -= 1
                if remaining == 0:
                    self._step(results)

            return waiter

        for i, event in enumerate(events):
            event.add_waiter(make_waiter(i))


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
        #: ``None`` keeps the dispatch loops on a single local ``None``
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

        For timers that are never cancelled — process ``Delay`` resumes,
        network transfer deliveries — this skips the
        :class:`TimerHandle` allocation.  The heap entry is a 4-tuple
        ``(when, seq, fn, args)`` next to the 3-tuple handle entries;
        comparisons still resolve at the unique sequence number, and the
        dispatch loop tells the shapes apart by length.
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

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot event bound to this kernel."""
        return SimEvent(self, name=name)

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
        ``run_until`` call (the loops hoist the digest reference once per
        call, like their other hot locals).
        """
        self._digest = digest

    def timestamp(self) -> float:
        """The current simulated time, in microseconds.

        The observability layer's clock source: a bound
        :class:`repro.obs.Tracer` stamps every span and event through
        this hook, so traces share the exact timeline the engine ran on.
        Reading the clock never perturbs the event queues.
        """
        return self.now

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name=name)

    # -- internals -----------------------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Rebuilds strictly in place: the dispatch loops hold a local
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
    # Both loops below are the hottest code in the simulator, hence the
    # local aliasing and inlined pops.  Full-tuple ``runq[0] < heap[0]``
    # comparison is safe: sequence numbers are unique across both
    # queues, so it resolves at slot 1 and never reaches the
    # uncomparable callback/handle slot.  Heap entries come in two
    # shapes — ``(when, seq, handle)`` from ``call_later`` and
    # ``(when, seq, fn, (None,))`` from ``_delay`` — told apart by
    # length.  With a digest attached an event costs two C-level list
    # appends (``fold``), or a ``tap`` call when the digest records
    # lines, and the digest hashes what is pending every 1024 events and
    # when the loop exits (see :class:`repro.sanitize.digest.StreamDigest`).

    def run_until(self, t_end: float) -> None:
        """Advance simulated time to ``t_end``, firing all due events."""
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
            self.now = max(self.now, t_end)
        finally:
            self.events_processed += processed
            self._running = False
            if digest is not None:
                digest.fold_block()

    def run(self) -> None:
        """Run until no events remain."""
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
        try:
            while True:
                if runq and (not heap or runq[0] < heap[0]):
                    when, seq, fn, args = popleft()
                elif heap:
                    entry = heappop(heap)
                    when = entry[0]
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
            self.events_processed += processed
            self._running = False
            if digest is not None:
                digest.fold_block()

    def pending(self) -> int:
        """Number of live events still queued (cancelled timers excluded)."""
        return len(self._runq) + len(self._heap) - self._dead
