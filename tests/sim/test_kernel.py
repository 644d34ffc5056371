"""Unit tests for the discrete-event kernel."""

import gc

import pytest

from repro.common.errors import SimulationError
from repro.sanitize.digest import StreamDigest
from repro.sim.kernel import Kernel


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
        event = kernel.event()
        got = []
        event.add_waiter(lambda: got.append(("a", kernel.now)))
        event.add_waiter(lambda: got.append(("b", kernel.now)))
        kernel.call_later(5, event.trigger)
        kernel.run()
        assert got == [("a", 5), ("b", 5)]

    def test_late_waiter_is_scheduled_at_once(self):
        kernel = Kernel()
        event = kernel.event()
        event.trigger()
        got = []
        event.add_waiter(lambda: got.append(kernel.now))
        assert got == [] and kernel.pending() == 1
        kernel.run()
        assert got == [0]

    def test_double_trigger_rejected(self):
        kernel = Kernel()
        event = kernel.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()


def _mixed_schedule(kernel: Kernel, fired: list) -> None:
    """call_soon chains, handled and unhandled timers, a cancelled timer."""

    def chain(tag, depth):
        fired.append((tag, kernel.now))
        if depth:
            kernel.call_soon(chain, tag, depth - 1)
            kernel.call_later_unhandled(3.0, fired.append, (tag, "raw"))

    kernel.call_soon(chain, "soon", 3)
    kernel.call_later(10, chain, "timer", 2)
    kernel.call_later(15, fired.append, "dead").cancel()
    kernel.call_later_unhandled(20, chain, "unhandled", 1)
    kernel.call_at(40, fired.append, "last")


class TestOneLoop:
    """``run`` and ``run_until`` are one dispatch loop."""

    @pytest.mark.parametrize("record", [False, True])
    def test_run_and_run_until_give_one_stream(self, record):
        legs = {}
        for leg in ("run", "run_until"):
            kernel = Kernel()
            digest = StreamDigest(record=record)
            kernel.attach_digest(digest)
            fired = []
            _mixed_schedule(kernel, fired)
            if leg == "run":
                kernel.run()
            else:
                kernel.run_until(1_000)
            legs[leg] = (kernel, digest, fired)
        (k_run, d_run, f_run), (k_until, d_until, f_until) = (
            legs["run"], legs["run_until"]
        )
        assert "dead" not in f_run and f_run[-1] == "last"
        assert f_run == f_until
        assert d_run.hexdigest() == d_until.hexdigest()
        assert d_run.lines == d_until.lines
        assert k_run.events_processed == k_until.events_processed == 16
        assert (k_run.now, k_until.now) == (40, 1_000)

    def test_run_until_inside_the_stream_resumes_it(self):
        # Stopping part-way and resuming gives the same stream again.
        whole, split = Kernel(), Kernel()
        for kernel in (whole, split):
            kernel.attach_digest(StreamDigest())
            _mixed_schedule(kernel, [])
        whole.run()
        split.run_until(12)
        assert split.now == 12 and split.pending() > 0
        split.run()
        assert split.events_processed == whole.events_processed
        assert split.digest.hexdigest() == whole.digest.hexdigest()


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

    def test_clear_drops_pending_events(self):
        kernel = Kernel()
        fired = []
        kernel.call_later(10, fired.append, "timer")
        kernel.call_later(20, fired.append, "cancelled").cancel()
        kernel.call_later_unhandled(5, fired.append, "raw")
        kernel.call_soon(fired.append, "soon")
        kernel.clear()
        assert kernel.pending() == 0
        kernel.run()
        assert fired == []


def run_leg(kernel, leg):
    if leg == "run":
        kernel.run()
    else:
        kernel.run_until(1_000)


@pytest.fixture
def collector_state():
    """Restore the caller's collector setting whatever a test does."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector_state")
@pytest.mark.parametrize("leg", ["run", "run_until"])
class TestCollectorPause:
    """The dispatch loop pauses automatic collection and restores it."""

    def test_off_inside_callbacks_and_back_on_after(self, leg):
        gc.enable()
        kernel = Kernel()
        seen = []
        kernel.call_later(10, lambda: seen.append(gc.isenabled()))
        kernel.call_soon(lambda: seen.append(gc.isenabled()))
        run_leg(kernel, leg)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_off(self, leg):
        gc.disable()
        kernel = Kernel()
        kernel.call_later(10, lambda: None)
        run_leg(kernel, leg)
        assert not gc.isenabled()

    def test_restored_when_a_callback_raises(self, leg):
        gc.enable()
        kernel = Kernel()

        def boom():
            raise RuntimeError("boom")

        kernel.call_later(10, boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_leg(kernel, leg)
        assert gc.isenabled()

    def test_nested_kernel_leaves_outer_pause_alone(self, leg):
        # A callback of one kernel runs another kernel to completion.
        gc.enable()
        outer, inner = Kernel(), Kernel()
        seen = []
        inner.call_later(5, lambda: seen.append(("inner", gc.isenabled())))

        def run_inner():
            run_leg(inner, leg)
            seen.append(("outer after inner", gc.isenabled()))

        outer.call_later(10, run_inner)
        run_leg(outer, leg)
        assert seen == [("inner", False), ("outer after inner", False)]
        assert gc.isenabled()
