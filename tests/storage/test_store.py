"""Unit tests for the per-node record store.

The conformance classes run through the parametrized ``store`` fixture
against two implementations: ``array`` is :class:`RecordStore`, the
columnar store every run uses, and ``dict`` is :class:`DictModel`, a
plain ``key -> (version, value, size)`` map in this file that serves as
the reference model.  Holding the model to the same cases is what lets
the stateful test below trust it as an oracle: random load / write /
restore / evict / install sequences must leave the store and the model
indistinguishable at every step.  Layout behaviour (slabs, holes,
spill) and the per-record footprint are pinned separately.
"""

import tracemalloc

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import StorageError
from repro.core.prescient import PrescientRouter
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges
from repro.storage.store import Record, RecordStore, _mix, state_fingerprint


class DictModel:
    """Reference model: one ``key -> (version, value, size)`` dict."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.rows = {}
        self.records_peak = 0

    def __len__(self):
        return len(self.rows)

    def __contains__(self, key):
        return key in self.rows

    def _put(self, key, row):
        self.rows[key] = row
        self.records_peak = max(self.records_peak, len(self.rows))

    def load(self, key, value=0, size=0):
        if key in self.rows:
            raise StorageError(f"key {key!r} already loaded")
        self._put(key, (0, value, size))

    def load_range(self, lo, hi, value=0, size=0):
        if hi <= lo or any(key in self.rows for key in range(lo, hi)):
            raise StorageError(f"bad load range [{lo}, {hi})")
        for key in range(lo, hi):
            self._put(key, (0, value, size))

    def read(self, key):
        if key not in self.rows:
            raise StorageError(f"absent {key!r}")
        return Record(key, *self.rows[key])

    def read_value(self, key):
        return self.read(key).value

    def write(self, key, txn_id):
        pre = self.read(key)
        self.rows[key] = (pre.version + 1, _mix(pre.value, txn_id), pre.size)
        return pre

    def restore(self, pre_image):
        size = self.read(pre_image.key).size
        self.rows[pre_image.key] = (pre_image.version, pre_image.value, size)

    def evict(self, key):
        record = self.read(key)
        del self.rows[key]
        return record

    def install(self, record):
        if record.key in self.rows:
            raise StorageError(f"double install of {record.key!r}")
        self._put(record.key, (record.version, record.value, record.size))

    def keys(self):
        return self.rows.keys()

    def iter_records(self):
        return (Record(key, *row) for key, row in self.rows.items())

    def data_bytes(self):
        return sum(row[2] for row in self.rows.values())


IMPLEMENTATIONS = {"array": RecordStore, "dict": DictModel}


def make_store(backend, node_id):
    return IMPLEMENTATIONS[backend](node_id)


@pytest.fixture(params=sorted(IMPLEMENTATIONS))
def backend(request):
    return request.param


@pytest.fixture
def store(backend):
    s = make_store(backend, node_id=0)
    for key in range(5):
        s.load(key)
    return s


class TestBasics:
    def test_load_and_read(self, store):
        record = store.read(3)
        assert record.version == 0
        assert store.read_value(3) == record.value
        assert 3 in store
        assert len(store) == 5

    def test_double_load_rejected(self, store):
        with pytest.raises(StorageError):
            store.load(3)

    def test_read_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.read(99)
        with pytest.raises(StorageError):
            store.read_value(99)

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
        assert store.read_value(1) == record.value

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
        # A slab record moves through the model and back into a store
        # that holds no slab for it (so it spills), untouched.
        src = RecordStore(0)
        src.load_range(0, 10, size=32)
        src.write(7, txn_id=3)
        model = DictModel(1)
        model.install(src.evict(7))
        dst = RecordStore(2)
        dst.install(model.evict(7))
        record = dst.read(7)
        assert record.version == 1 and record.size == 32
        assert dst.spill_size() == 1


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
        # The store and the model, driven through one history, must not
        # differ in the cluster-wide fingerprint by a single bit.
        stores = []
        for name in sorted(IMPLEMENTATIONS):
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
    """Layout behaviour of the columnar store (slabs, holes, spill)."""

    def test_slab_plus_spill_membership(self):
        s = RecordStore(0)
        s.load_range(0, 100)
        s.load(("wh", 3))          # non-integer key -> spill
        s.load(1_000_000)          # integer outside any slab -> spill
        assert ("wh", 3) in s and 1_000_000 in s and 50 in s
        assert len(s) == 102
        assert s.spill_size() == 2

    def test_overlapping_range_rejected(self):
        s = RecordStore(0)
        s.load_range(0, 100)
        with pytest.raises(StorageError):
            s.load_range(50, 150)
        s.load(200)
        with pytest.raises(StorageError):
            s.load_range(150, 250)

    def test_evict_holes_then_unhole_on_install(self):
        s = RecordStore(0)
        s.load_range(0, 10)
        record = s.evict(4)
        assert 4 not in s and len(s) == 9
        assert s.spill_size() == 0
        with pytest.raises(StorageError):
            s.read_value(4)
        s.install(record)           # returns home -> un-holed, not spilled
        assert 4 in s and len(s) == 10
        assert s.spill_size() == 0

    def test_load_refills_hole(self):
        s = RecordStore(0)
        s.load_range(0, 10)
        s.evict(4)
        s.load(4, size=8)
        assert s.read(4).version == 0
        assert s.spill_size() == 0

    def test_iter_order_is_slab_then_spill(self):
        s = RecordStore(0)
        s.load_range(100, 103)
        s.load_range(0, 3)
        s.load(999)
        assert list(s.keys()) == [0, 1, 2, 100, 101, 102, 999]
        assert [r.key for r in s.iter_records()] == list(s.keys())

    def test_memory_bytes_is_columnar(self):
        s = RecordStore(0)
        s.load_range(0, 1000)
        # 2 x u64 + 1 x u32 per record = 20 bytes, no per-record objects.
        assert s.memory_bytes() == 1000 * 20
        spilled = RecordStore(0)
        for key in range(1000):
            spilled.load(key)
        assert s.memory_bytes() < spilled.memory_bytes()

    def test_write_mutates_columns_in_place(self):
        s = RecordStore(0)
        s.load_range(0, 8)
        pre = s.write(5, txn_id=2)
        assert pre.version == 0
        assert s.read(5).version == 1
        assert s.spill_size() == 0


class TestFootprint:
    RECORDS = 10_000

    def test_loaded_store_costs_at_most_32_bytes_per_record(self):
        # 20 B of columns per record plus the slab's fixed overhead; a
        # Record object per key (and its boxed key and value) is ~125 B.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = RecordStore(0)
            s.load_range(0, self.RECORDS, size=100)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(s) == self.RECORDS
        assert (after - before) / self.RECORDS <= 32

    def test_cluster_loads_a_range_into_slabs(self, small_cluster_config):
        cluster = Cluster(
            small_cluster_config, PrescientRouter(),
            make_uniform_ranges(self.RECORDS, 3),
        )
        cluster.load_data(range(self.RECORDS))
        assert cluster.total_records() == self.RECORDS
        assert all(node.store.spill_size() == 0 for node in cluster.nodes)


# ----------------------------------------------------------------------
# The model as oracle: random histories, checked after every step
# ----------------------------------------------------------------------

#: ``load_range`` targets: four disjoint 16-key blocks.
BLOCKS = 4
BLOCK = 16
KEYS = st.one_of(
    st.integers(0, BLOCKS * BLOCK + 7),    # slab blocks plus a spill tail
    st.tuples(st.just("t"), st.integers(0, 3)),
)
UNIVERSE = list(range(BLOCKS * BLOCK + 8)) + [("t", i) for i in range(4)]


class StoreAgainstModel(RuleBasedStateMachine):
    """Drive :class:`RecordStore` and :class:`DictModel` in lockstep."""

    @initialize()
    def setup(self):
        self.store = RecordStore(0)
        self.model = DictModel(0)
        self.loaded_blocks = set()
        self.pre_images = []
        self.evicted = []

    def both(self, method, *args):
        """Apply one call to both; they must agree on raising."""
        outcomes = []
        for target in (self.store, self.model):
            try:
                outcomes.append(getattr(target, method)(*args))
            except StorageError:
                outcomes.append(StorageError)
        assert (outcomes[0] is StorageError) == (outcomes[1] is StorageError)
        return outcomes

    @rule(key=KEYS, value=st.integers(0, 2**64 - 1), size=st.integers(0, 99))
    def load(self, key, value, size):
        self.both("load", key, value, size)

    @precondition(lambda self: len(self.loaded_blocks) < BLOCKS)
    @rule(block=st.integers(0, BLOCKS - 1), size=st.integers(0, 99))
    def load_range(self, block, size):
        if block in self.loaded_blocks:
            return  # a range loads once; overlap is a unit-tested error
        lo = block * BLOCK
        got, _ = self.both("load_range", lo, lo + BLOCK, 0, size)
        if got is not StorageError:
            self.loaded_blocks.add(block)

    @rule(key=KEYS, txn_id=st.integers(0, 10_000))
    def write(self, key, txn_id):
        got, want = self.both("write", key, txn_id)
        if got is not StorageError:
            assert got == want
            self.pre_images.append(got)

    @precondition(lambda self: self.pre_images)
    @rule(data=st.data())
    def restore(self, data):
        pre = data.draw(st.sampled_from(self.pre_images))
        self.both("restore", pre)

    @rule(key=KEYS)
    def evict(self, key):
        got, want = self.both("evict", key)
        if got is not StorageError:
            assert got == want
            self.evicted.append(got)

    @precondition(lambda self: self.evicted)
    @rule(data=st.data())
    def install(self, data):
        record = data.draw(st.sampled_from(self.evicted))
        self.both("install", record.copy())

    @invariant()
    def indistinguishable(self):
        store, model = self.store, self.model
        for key in UNIVERSE:
            assert (key in store) == (key in model)
            if key in model:
                assert store.read(key) == model.read(key)
                assert store.read_value(key) == model.read_value(key)
        assert len(store) == len(model)
        assert sorted(map(repr, store.keys())) == sorted(
            map(repr, model.keys())
        )
        assert state_fingerprint([store]) == state_fingerprint([model])
        assert store.data_bytes() == model.data_bytes()
        assert store.records_peak == model.records_peak


TestStoreAgainstModel = StoreAgainstModel.TestCase
