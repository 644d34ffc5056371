"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.kernel import Delay, Kernel


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.call_later(30, fired.append, "c")
        kernel.call_later(10, fired.append, "a")
        kernel.call_later(20, fired.append, "b")
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        kernel = Kernel()
        fired = []
        for tag in range(5):
            kernel.call_later(10, fired.append, tag)
        kernel.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until_stops_at_boundary(self):
        kernel = Kernel()
        fired = []
        kernel.call_later(10, fired.append, "early")
        kernel.call_later(100, fired.append, "late")
        kernel.run_until(50)
        assert fired == ["early"]
        assert kernel.now == 50
        assert kernel.pending() == 1

    def test_negative_delay_rejected(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.call_later(-1, lambda: None)

    def test_clock_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.call_later(42, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [42]


class TestSimEvent:
    def test_waiters_wake_on_trigger(self):
        kernel = Kernel()
        event = kernel.event("e")
        got = []
        event.add_waiter(got.append)
        kernel.call_later(5, event.trigger, 123)
        kernel.run()
        assert got == [123]

    def test_late_waiter_gets_value_immediately(self):
        kernel = Kernel()
        event = kernel.event()
        event.trigger("v")
        got = []
        event.add_waiter(got.append)
        kernel.run()
        assert got == ["v"]

    def test_double_trigger_rejected(self):
        kernel = Kernel()
        event = kernel.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()


class TestProcess:
    def test_delay_advances_time(self):
        kernel = Kernel()
        log = []

        def proc():
            log.append(kernel.now)
            yield Delay(100)
            log.append(kernel.now)

        kernel.process(proc())
        kernel.run()
        assert log == [0, 100]

    def test_event_wait_receives_value(self):
        kernel = Kernel()
        event = kernel.event()
        got = []

        def proc():
            value = yield event
            got.append(value)

        kernel.process(proc())
        kernel.call_later(10, event.trigger, "hello")
        kernel.run()
        assert got == ["hello"]

    def test_done_event_carries_return_value(self):
        kernel = Kernel()

        def proc():
            yield Delay(1)
            return 42

        process = kernel.process(proc())
        kernel.run()
        assert process.done.triggered
        assert process.done.value == 42

    def test_unsupported_yield_raises(self):
        kernel = Kernel()

        def proc():
            yield "nonsense"

        kernel.process(proc())
        with pytest.raises(SimulationError):
            kernel.run()

    def test_nested_processes(self):
        kernel = Kernel()
        log = []

        def child():
            yield Delay(5)
            return "done"

        def parent():
            proc = kernel.process(child(), name="child")
            value = yield proc.done
            log.append((kernel.now, value))

        kernel.process(parent())
        kernel.run()
        assert log == [(5, "done")]


class TestFastPath:
    """The run-queue/cancellable-timer fast path (kept bit-compatible)."""

    def test_call_soon_runs_before_later_timers(self):
        kernel = Kernel()
        fired = []
        kernel.call_later(5, fired.append, "timer")
        kernel.call_soon(fired.append, "soon")
        kernel.run()
        assert fired == ["soon", "timer"]

    def test_call_soon_fifo_within_same_time(self):
        kernel = Kernel()
        fired = []

        def chain(tag, depth):
            fired.append((tag, depth))
            if depth:
                kernel.call_soon(chain, tag, depth - 1)

        kernel.call_soon(chain, "a", 2)
        kernel.call_soon(chain, "b", 2)
        kernel.run()
        assert fired == [("a", 2), ("b", 2), ("a", 1), ("b", 1),
                         ("a", 0), ("b", 0)]

    def test_zero_delay_timer_interleaves_with_runq_in_seq_order(self):
        kernel = Kernel()
        fired = []
        kernel.call_soon(fired.append, 1)
        kernel.call_later(0, fired.append, 2)
        kernel.call_soon(fired.append, 3)
        kernel.run()
        assert fired == [1, 2, 3]

    def test_cancelled_timer_never_fires(self):
        kernel = Kernel()
        fired = []
        handle = kernel.call_later(10, fired.append, "dead")
        kernel.call_later(20, fired.append, "alive")
        handle.cancel()
        kernel.run()
        assert fired == ["alive"]

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        handle = kernel.call_later(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert kernel.pending() == 0
        kernel.run()

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        handles = [kernel.call_later(10 + i, lambda: None) for i in range(4)]
        kernel.call_soon(lambda: None)
        assert kernel.pending() == 5
        handles[0].cancel()
        handles[2].cancel()
        assert kernel.pending() == 3

    def test_call_later_unhandled_fires_in_order(self):
        kernel = Kernel()
        fired = []
        kernel.call_later(10, fired.append, "handled")
        kernel.call_later_unhandled(5, fired.append, "raw")
        kernel.run()
        assert fired == ["raw", "handled"]
        with pytest.raises(SimulationError):
            kernel.call_later_unhandled(-1, fired.append, "bad")

    def test_call_at_returns_cancellable_handle(self):
        kernel = Kernel()
        fired = []
        keep = kernel.call_at(30, fired.append, "keep")
        drop = kernel.call_at(20, fired.append, "drop")
        drop.cancel()
        kernel.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_compaction_purges_dead_entries_mid_run(self):
        # Enough cancellations to cross the compaction threshold while
        # the dispatch loop is running: the heap must shrink in place
        # and every surviving timer must still fire, in order.
        kernel = Kernel()
        fired = []
        doomed = [kernel.call_later(1_000 + i, fired.append, -i)
                  for i in range(200)]
        kernel.call_later(2_000, fired.append, "survivor")

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        kernel.call_later(1, cancel_all)
        kernel.run()
        assert fired == ["survivor"]
        assert kernel.pending() == 0
        assert len(kernel._heap) == 0

    def test_cancellation_storm_keeps_determinism(self):
        # Interleave schedules and cancels; the surviving timers fire
        # exactly in (time, seq) order regardless of compaction.
        kernel = Kernel()
        fired = []
        handles = {}
        for i in range(300):
            handles[i] = kernel.call_later(
                float((i * 37) % 50 + 1), fired.append, i
            )
        for i in range(0, 300, 2):
            handles[i].cancel()
        kernel.run()
        expected = sorted(
            (i for i in range(300) if i % 2),
            key=lambda i: ((i * 37) % 50 + 1, i),
        )
        assert fired == expected
