"""Unit tests for metric collectors."""

import pytest

from repro.sim.stats import LatencyBreakdown, TimeSeries, WindowedRate


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
    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            LatencyBreakdown().record({"mystery": 1.0})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown().record({"scheduling": -1.0})
