"""Unit tests for the per-node record store.

The conformance classes run against **both** backends (``dict`` and
``array``) through the parametrized ``store`` fixture: every behaviour
the engine relies on — load/read/write/restore, migration primitives,
snapshots, fingerprints — must be indistinguishable across backends.
Array-only layout behaviour (slabs, holes, spill) is pinned separately.
"""

import pytest

from repro.common.errors import ConfigurationError, StorageError
from repro.storage.store import (
    ArrayRecordStore,
    RecordStore,
    STORE_BACKENDS,
    make_store,
    state_fingerprint,
)

BACKENDS = sorted(STORE_BACKENDS)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend):
    s = make_store(backend, node_id=0)
    for key in range(5):
        s.load(key)
    return s


class TestRegistry:
    def test_known_backends(self):
        assert set(STORE_BACKENDS) == {"dict", "array"}
        assert isinstance(make_store("dict", 0), RecordStore)
        assert isinstance(make_store("array", 0), ArrayRecordStore)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            make_store("btree", 0)

    def test_backend_name_attribute(self, backend):
        assert make_store(backend, 0).backend_name == backend


class TestBasics:
    def test_load_and_read(self, store):
        record = store.read(3)
        assert record.version == 0
        assert 3 in store
        assert len(store) == 5

    def test_double_load_rejected(self, store):
        with pytest.raises(StorageError):
            store.load(3)

    def test_read_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.read(99)

    def test_load_range_matches_loop(self, backend):
        bulk = make_store(backend, 0)
        bulk.load_range(10, 20, size=64)
        loop = make_store(backend, 0)
        for key in range(10, 20):
            loop.load(key, size=64)
        assert sorted(bulk.keys()) == sorted(loop.keys())
        assert len(bulk) == len(loop) == 10
        assert bulk.data_bytes() == loop.data_bytes() == 640
        assert state_fingerprint([bulk]) == state_fingerprint([loop])

    def test_empty_load_range_rejected(self, backend):
        with pytest.raises(StorageError):
            make_store(backend, 0).load_range(5, 5)

    def test_size_tags_ride_along(self, backend):
        s = make_store(backend, 0)
        s.load(1, size=128)
        assert s.read(1).size == 128
        assert s.data_bytes() == 128

    def test_records_peak_tracks_high_water(self, store):
        assert store.records_peak == 5
        store.evict(0)
        store.evict(1)
        assert store.records_peak == 5
        for key in range(10, 14):
            store.load(key)
        assert store.records_peak == 7


class TestWrites:
    def test_write_bumps_version_and_value(self, store):
        before = store.read(1).value
        pre = store.write(1, txn_id=7)
        assert pre.version == 0
        record = store.read(1)
        assert record.version == 1
        assert record.value != before

    def test_writes_by_different_txns_differ(self, backend):
        a, b = make_store(backend, 0), make_store(backend, 1)
        a.load(1)
        b.load(1)
        a.write(1, txn_id=10)
        b.write(1, txn_id=20)
        assert a.read(1).value != b.read(1).value

    def test_restore_undoes_write(self, store):
        pre = store.write(2, txn_id=5)
        store.restore(pre)
        record = store.read(2)
        assert record.version == 0
        assert record.value == pre.value

    def test_pre_image_is_by_value(self, store):
        pre = store.write(2, txn_id=5)
        stash = (pre.version, pre.value)
        store.write(2, txn_id=6)
        assert (pre.version, pre.value) == stash


class TestMigrationPrimitives:
    def test_evict_install_roundtrip(self, store, backend):
        other = make_store(backend, 1)
        record = store.evict(4)
        other.install(record)
        assert 4 not in store
        assert other.read(4).version == 0
        assert len(store) == 4 and len(other) == 1

    def test_evict_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.evict(99)

    def test_double_install_raises(self, store, backend):
        other = make_store(backend, 1)
        other.install(store.evict(0))
        store.load(0)
        with pytest.raises(StorageError):
            other.install(store.evict(0))

    def test_migration_preserves_written_state(self, store, backend):
        store.write(3, txn_id=11)
        expect = store.read(3)
        other = make_store(backend, 1)
        other.install(store.evict(3))
        got = other.read(3)
        assert (got.version, got.value) == (expect.version, expect.value)

    def test_cross_backend_migration(self):
        # Records must move between heterogeneous backends untouched.
        src = make_store("array", 0)
        src.load_range(0, 10, size=32)
        src.write(7, txn_id=3)
        dst = make_store("dict", 1)
        dst.install(src.evict(7))
        record = dst.read(7)
        assert record.version == 1 and record.size == 32


class TestFingerprint:
    def test_identical_states_match(self, backend):
        a, b = make_store(backend, 0), make_store(backend, 0)
        for key in range(10):
            a.load(key)
            b.load(key)
        a.write(3, txn_id=9)
        b.write(3, txn_id=9)
        assert state_fingerprint([a]) == state_fingerprint([b])

    def test_differing_write_changes_fingerprint(self, backend):
        a, b = make_store(backend, 0), make_store(backend, 0)
        for key in range(10):
            a.load(key)
            b.load(key)
        a.write(3, txn_id=9)
        b.write(3, txn_id=8)
        assert state_fingerprint([a]) != state_fingerprint([b])

    def test_placement_is_ignored(self, backend):
        # Same records split across stores differently -> same fingerprint.
        a1, a2 = make_store(backend, 0), make_store(backend, 1)
        b1, b2 = make_store(backend, 0), make_store(backend, 1)
        a1.load(1)
        a2.load(2)
        b1.load(2)
        b2.load(1)
        assert state_fingerprint([a1, a2]) == state_fingerprint([b1, b2])

    def test_backends_fingerprint_identically(self):
        # The scale guarantee: swapping the backend must not move the
        # cluster-wide fingerprint by a single bit.
        stores = []
        for name in BACKENDS:
            s = make_store(name, 0)
            s.load_range(0, 50, size=16)
            s.write(13, txn_id=4)
            s.write(13, txn_id=9)
            other = make_store(name, 1)
            other.install(s.evict(20))
            stores.append((s, other))
        prints = {state_fingerprint(list(pair)) for pair in stores}
        assert len(prints) == 1

    def test_size_excluded_from_fingerprint(self, backend):
        a, b = make_store(backend, 0), make_store(backend, 0)
        a.load(1, size=0)
        b.load(1, size=4096)
        assert state_fingerprint([a]) == state_fingerprint([b])


class TestArrayLayout:
    """Array-backend-specific layout behaviour (slabs, holes, spill)."""

    def test_slab_plus_spill_membership(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 100)
        s.load(("wh", 3))          # non-integer key -> spill
        s.load(1_000_000)          # integer outside any slab -> spill
        assert ("wh", 3) in s and 1_000_000 in s and 50 in s
        assert len(s) == 102
        assert s.spill_size() == 2

    def test_overlapping_range_rejected(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 100)
        with pytest.raises(StorageError):
            s.load_range(50, 150)
        s.load(200)
        with pytest.raises(StorageError):
            s.load_range(150, 250)

    def test_evict_holes_then_unhole_on_install(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 10)
        record = s.evict(4)
        assert 4 not in s and len(s) == 9
        assert s.spill_size() == 0
        s.install(record)           # returns home -> un-holed, not spilled
        assert 4 in s and len(s) == 10
        assert s.spill_size() == 0

    def test_load_refills_hole(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 10)
        s.evict(4)
        s.load(4, size=8)
        assert s.read(4).version == 0
        assert s.spill_size() == 0

    def test_iter_order_is_slab_then_spill(self):
        s = ArrayRecordStore(0)
        s.load_range(100, 103)
        s.load_range(0, 3)
        s.load(999)
        assert list(s.keys()) == [0, 1, 2, 100, 101, 102, 999]
        assert [r.key for r in s.iter_records()] == list(s.keys())

    def test_memory_bytes_is_columnar(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 1000)
        # 2 x u64 + 1 x u32 per record = 20 bytes, no per-record objects.
        assert s.memory_bytes() == 1000 * 20
        d = RecordStore(0)
        d.load_range(0, 1000)
        assert s.memory_bytes() < d.memory_bytes()

    def test_write_mutates_columns_in_place(self):
        s = ArrayRecordStore(0)
        s.load_range(0, 8)
        pre = s.write(5, txn_id=2)
        assert pre.version == 0
        assert s.read(5).version == 1
        assert s.spill_size() == 0
