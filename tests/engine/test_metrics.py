"""Unit tests for cluster metric aggregation."""

import pytest

from repro.engine.metrics import ClusterMetrics


class FakeRuntime:
    def __init__(self, t_commit, arrival=0.0):
        self.t_commit = t_commit
        self._arrival = arrival

    def stage_times(self):
        return (10.0, 5.0, 0.0, 0.0, 0.0)

    def total_latency(self):
        return self.t_commit - self._arrival


class TestClusterMetrics:
    def test_warmup_excluded_from_aggregates(self):
        metrics = ClusterMetrics(window_us=1000.0)
        metrics.warmup_until = 5_000.0
        metrics.note_commit(FakeRuntime(t_commit=1_000.0))
        metrics.note_commit(FakeRuntime(t_commit=9_000.0))
        assert metrics.commits == 1
        # The rate series still counts warm-up commits (the paper's plots
        # include the warm-up ramp).
        assert metrics.commit_rate.total() == 2

    def test_mean_latency(self):
        metrics = ClusterMetrics(window_us=1000.0)
        metrics.note_commit(FakeRuntime(t_commit=2_000.0, arrival=0.0))
        metrics.note_commit(FakeRuntime(t_commit=4_000.0, arrival=1_000.0))
        assert metrics.mean_latency_us() == pytest.approx(2_500.0)

    def test_mean_is_the_running_sum_over_the_count(self):
        # Preset digests depend on this summation order: ten 0.1 us
        # latencies summed left to right give 0.9999999999999999, so the
        # mean is 0.09999999999999999 (statistics.fmean would say 0.1).
        metrics = ClusterMetrics(window_us=1000.0)
        for _ in range(10):
            metrics.note_commit(FakeRuntime(t_commit=0.1))
        assert metrics.mean_latency_us() == 0.09999999999999999

    def test_throughput_per_second(self):
        metrics = ClusterMetrics(window_us=1000.0)
        for t in range(10):
            metrics.note_commit(FakeRuntime(t_commit=t * 100_000.0 + 1))
        assert metrics.throughput_per_second(1_000_000.0) == pytest.approx(10.0)

    def test_throughput_clamped_below_warmup(self):
        # Regression: an `until` before the warm-up boundary must be an
        # explicit 0.0 (no commits are counted before warm-up), not a
        # negative span masked by a `span <= 0` guard.
        metrics = ClusterMetrics(window_us=1000.0)
        metrics.warmup_until = 2_000_000.0
        metrics.note_commit(FakeRuntime(t_commit=2_500_000.0))
        assert metrics.commits == 1
        assert metrics.throughput_per_second(1_000_000.0) == 0.0
        assert metrics.throughput_per_second(2_000_000.0) == 0.0
        assert metrics.throughput_per_second(2_500_000.0) == pytest.approx(2.0)

    def test_empty_metrics_are_zero(self):
        metrics = ClusterMetrics(window_us=1000.0)
        assert metrics.mean_latency_us() == 0.0
        assert metrics.throughput_per_second(0.0) == 0.0
        assert metrics.throughput_per_second(1e6) == 0.0

    def test_throughput_series_padding(self):
        metrics = ClusterMetrics(window_us=1000.0)
        metrics.note_commit(FakeRuntime(t_commit=100.0))
        metrics.note_commit(FakeRuntime(t_commit=3_500.0))
        series = metrics.throughput_series(4_000.0)
        assert series.values == [1.0, 0.0, 0.0, 1.0]


class TestPercentiles:
    def test_nearest_rank(self):
        metrics = ClusterMetrics(window_us=1000.0)
        for latency in (100.0, 200.0, 300.0, 400.0):
            metrics.note_commit(FakeRuntime(t_commit=latency, arrival=0.0))
        p = metrics.latency_percentiles_us((0.5, 1.0))
        assert p[0.5] == 200.0
        assert p[1.0] == 400.0
        assert metrics.latency_percentiles_us((0.25,))[0.25] == 100.0

    def test_pre_us_aliases_removed(self):
        metrics = ClusterMetrics(window_us=1000.0)
        assert not hasattr(metrics, "latency_percentile")
        assert not hasattr(metrics, "latency_percentiles")

    def test_empty_is_zero(self):
        metrics = ClusterMetrics(window_us=1000.0)
        assert metrics.latency_percentiles_us((0.99,))[0.99] == 0.0

    def test_bad_quantile(self):
        metrics = ClusterMetrics(window_us=1000.0)
        with pytest.raises(ValueError):
            metrics.latency_percentiles_us((0.0,))
        with pytest.raises(ValueError):
            metrics.latency_percentiles_us((1.5,))
