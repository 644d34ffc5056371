"""Unit tests for the typed metrics registry."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry


class TestInstrumentFamilies:
    def test_same_name_and_labels_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("txn_commits_total", node="0")
        b = registry.counter("txn_commits_total", node="0")
        assert a is b
        assert len(registry) == 1

    def test_labels_pick_out_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", node="0").set(3.0)
        registry.gauge("queue_depth", node="1").set(5.0)
        assert len(registry) == 2
        assert [g.value for g in registry.find("queue_depth")] == [3.0, 5.0]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("x")


class TestCounter:
    def test_inc_is_monotone(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        hist = MetricsRegistry().histogram("lat")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.mean() == 50.5
        pcts = hist.percentiles((0.5, 0.95, 0.99))
        assert pcts == {0.5: 50.0, 0.95: 95.0, 0.99: 99.0}

    def test_empty_and_bad_quantiles(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.percentiles((0.5,)) == {0.5: 0.0}
        with pytest.raises(ValueError):
            hist.percentiles((0.0,))


class TestSnapshot:
    def test_rows_are_sorted_and_carry_common_labels(self):
        registry = MetricsRegistry()
        registry.common_labels["strategy"] = "hermes"
        registry.gauge("b_gauge", node="1").set(2.0)
        registry.counter("a_counter").inc(4.0)
        registry.histogram("c_hist").observe(7.0)
        rows = registry.snapshot()
        assert [r["name"] for r in rows] == ["a_counter", "b_gauge", "c_hist"]
        assert rows[0] == {
            "name": "a_counter", "kind": "counter",
            "labels": {"strategy": "hermes"}, "value": 4.0,
        }
        assert rows[1]["labels"] == {"strategy": "hermes", "node": "1"}
        assert rows[2]["count"] == 1 and rows[2]["p99"] == 7.0
