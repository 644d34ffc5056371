"""Unit + property tests for the bounded fusion table (Section 4.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import FusionConfig
from repro.core.fusion_table import FusionTable


class TestBasics:
    def test_put_get_roundtrip(self):
        table = FusionTable(FusionConfig(capacity=10))
        assert table.put("a", 1) == []
        assert table.get("a") == 1
        assert table.get("b") is None
        assert len(table) == 1

    def test_update_changes_owner(self):
        table = FusionTable()
        table.put("a", 1)
        table.put("a", 2)
        assert table.get("a") == 2
        assert len(table) == 1

    def test_remove(self):
        table = FusionTable()
        table.put("a", 1)
        table.remove("a")
        assert table.get("a") is None
        table.remove("a")  # idempotent

    def test_zero_capacity_is_unbounded(self):
        table = FusionTable(FusionConfig(capacity=0))
        for key in range(1000):
            assert table.put(key, 0) == []
        assert len(table) == 1000


class TestFIFOEviction:
    def test_oldest_insert_evicted(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="fifo"))
        table.put("a", 1)
        table.put("b", 2)
        evicted = table.put("c", 3)
        assert evicted == [("a", 1)]
        assert "a" not in table

    def test_get_does_not_refresh_fifo(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="fifo"))
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        evicted = table.put("c", 3)
        assert evicted == [("a", 1)]


class TestLRUEviction:
    def test_get_refreshes_recency(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="lru"))
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        evicted = table.put("c", 3)
        assert evicted == [("b", 2)]
        assert "a" in table

    def test_eviction_reports_recorded_owner(self):
        table = FusionTable(FusionConfig(capacity=1))
        table.put("a", 7)
        evicted = table.put("b", 3)
        assert evicted == [("a", 7)]


class TestDuplicatePut:
    """Re-fusing an already-tracked key updates in place: it must count
    as one insert and refresh recency, not create a phantom entry."""

    def test_duplicate_put_counts_one_insert(self):
        table = FusionTable(FusionConfig(capacity=10))
        table.put("a", 1)
        table.put("a", 2)
        assert table.inserts_total == 1
        assert table.get("a") == 2
        assert len(table) == 1

    def test_duplicate_put_refreshes_recency(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="lru"))
        table.put("a", 1)
        table.put("b", 2)
        table.put("a", 3)  # re-fuse "a": now most recent
        evicted = table.put("c", 4)
        assert evicted == [("b", 2)]
        assert "a" in table
        assert table.inserts_total == 3  # a, b, c — not the re-put

    def test_eviction_after_update_reports_latest_owner(self):
        """The evicted pair names where the record *currently* lives —
        the updated owner, not the one from the first put."""
        table = FusionTable(FusionConfig(capacity=1))
        table.put("a", 7)
        table.put("a", 9)
        evicted = table.put("b", 3)
        assert evicted == [("a", 9)]
        assert table.evictions_total == 1


class TestCounters:
    def test_insert_and_eviction_counts(self):
        table = FusionTable(FusionConfig(capacity=2))
        table.put("a", 1)
        table.put("b", 1)
        table.put("c", 1)
        assert table.inserts_total == 3
        assert table.evictions_total == 1


@given(
    capacity=st.integers(1, 8),
    ops=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 3)), max_size=100
    ),
    eviction=st.sampled_from(["fifo", "lru"]),
)
@settings(max_examples=80)
def test_property_capacity_never_exceeded(capacity, ops, eviction):
    """|table| <= capacity at all times, and every eviction is reported."""
    table = FusionTable(FusionConfig(capacity=capacity, eviction=eviction))
    live: dict[int, int] = {}
    for key, node in ops:
        evicted = table.put(key, node)
        live[key] = node
        for evicted_key, evicted_owner in evicted:
            assert live.pop(evicted_key) == evicted_owner
        assert len(table) <= capacity
        assert len(table) == len(live)
    # Whatever remains maps exactly to the live model.
    assert table.snapshot() == live


class TestGetBulk:
    """get_bulk must be observably identical to a per-key get loop."""

    def test_matches_per_key_gets(self):
        table = FusionTable(FusionConfig(capacity=10))
        for key in ("a", "b", "c"):
            table.put(key, ord(key))
        keys = ["a", "missing", "c", "a"]
        assert table.get_bulk(keys) == [table.get(k) for k in keys]

    def test_empty_input(self):
        assert FusionTable().get_bulk([]) == []

    def test_bulk_refreshes_lru_recency_per_hit(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="lru"))
        table.put("a", 1)
        table.put("b", 2)
        # Bulk lookup touches "a" last, so "b" is the LRU victim —
        # exactly what the equivalent get() sequence would leave behind.
        assert table.get_bulk(["b", "a"]) == [2, 1]
        evicted = table.put("c", 3)
        assert evicted == [("b", 2)]
        assert "a" in table

    def test_bulk_misses_do_not_touch_recency(self):
        table = FusionTable(FusionConfig(capacity=2, eviction="lru"))
        table.put("a", 1)
        table.put("b", 2)
        assert table.get_bulk(["x", "a"]) == [None, 1]
        assert table.put("c", 3) == [("b", 2)]
