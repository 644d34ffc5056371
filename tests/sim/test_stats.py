"""Unit tests for metric collectors."""

import pytest

from repro.sim.stats import (
    LATENCY_STAGES,
    LatencyBreakdown,
    TimeSeries,
    WindowedRate,
)


class TestTimeSeries:
    def test_rejects_time_regression(self):
        series = TimeSeries("s")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)


class TestWindowedRate:
    def test_counts_into_windows(self):
        rate = WindowedRate("r", window_us=100.0)
        for t in (10, 20, 150, 250, 260, 270):
            rate.record(t)
        series = rate.series(until=300.0)
        assert series.values == [2.0, 1.0, 3.0]

    def test_empty_windows_padded_with_zero(self):
        rate = WindowedRate("r", window_us=100.0)
        rate.record(10)
        rate.record(450)
        series = rate.series(until=500.0)
        assert series.values == [1.0, 0.0, 0.0, 0.0, 1.0]

    def test_total(self):
        rate = WindowedRate("r", window_us=10.0)
        rate.record(1, 2.0)
        rate.record(11, 3.0)
        assert rate.total() == 5.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedRate("r", window_us=0)


class TestLatencyBreakdown:
    def test_add_sums_each_stage_in_order(self):
        breakdown = LatencyBreakdown()
        breakdown.add(10.0, 5.0, 2.0, 0.0, 1.0)
        breakdown.add(30.0, 1.0, 4.0, 6.0, 3.0)
        assert breakdown.count == 2
        assert breakdown.averages() == {
            "scheduling": 20.0, "lock_wait": 3.0, "local_storage": 3.0,
            "remote_wait": 3.0, "other": 2.0,
        }

    def test_add_takes_the_tracer_stage_order(self):
        """``add`` names its positions itself; the tracer labels the same
        tuple with ``zip(LATENCY_STAGES, ...)``.  Reordering one without
        the other fails here."""
        values = (1.0, 2.0, 4.0, 8.0, 16.0)
        breakdown = LatencyBreakdown()
        breakdown.add(*values)
        assert breakdown.sums == dict(zip(LATENCY_STAGES, values))

    def test_empty_averages_are_zero(self):
        assert LatencyBreakdown().averages() == dict.fromkeys(
            LATENCY_STAGES, 0.0
        )
