"""Per-node main-memory record store, behind a pluggable backend.

Records carry a version counter and a value fingerprint rather than real
payloads: the simulation never needs the bytes, but it *does* need to
prove that every run reaches the same final state.  A write mixes the
writing transaction's id into the value, so the cluster-wide
:func:`state_fingerprint` changes if any run ever writes a different
value, a different version, or places a record on a different node's
store at a different time of migration.

Two backends implement the :class:`StoreBackend` protocol:

* :class:`RecordStore` — one :class:`Record` object per key in a dict.
  The default; at the preset scales (tens of thousands of keys per
  node) the per-object overhead is irrelevant and a live dict is the
  fastest thing CPython offers.
* :class:`ArrayRecordStore` — the scale backend.  The bulk of the
  keyspace lives in contiguous integer-range *slabs* backed by
  ``array('Q')`` columns (version, value) plus an ``array('I')`` of
  size tags, so a 2M–20M-key node costs ~20 bytes per record instead
  of a ~200-byte ``Record`` + dict entry.  Only *displaced* records —
  migrated in from another node, or single-key loads — fall back to
  per-object storage in a spill dict, and displacement is bounded by
  the overlay (fusion-table capacity), not the keyspace.

Both backends speak :class:`Record` at their edges (pre-images for
undo, eviction/installation during migration), so the engine
and WAL are backend-agnostic; the array backend synthesizes transient
``Record`` objects on those paths and mutates its columns in place on
the hot ``write`` path.  Fingerprints hash ``(key, version, value)``
only, so a cluster reaches the same :func:`state_fingerprint` no matter
which backend holds the records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.common.errors import ConfigurationError, StorageError
from repro.common.types import Key, TxnId


def _mix(value: int, txn_id: int) -> int:
    """Deterministic 64-bit mix of the old value and the writer's id."""
    x = (value * 0x100000001B3 + txn_id + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    return x


@dataclass(slots=True)
class Record:
    """One stored record: a version counter and a value fingerprint.

    ``size`` tags the payload size in bytes the record stands for; it
    rides along through migrations but is deliberately
    excluded from :func:`state_fingerprint` (it is bookkeeping, not
    state).
    """

    key: Key
    version: int = 0
    value: int = 0
    size: int = 0

    def copy(self) -> "Record":
        return Record(self.key, self.version, self.value, self.size)


#: Nominal resident cost of one dict-held ``Record`` (object header +
#: three boxed ints + dict slot).  A bookkeeping estimate for the memory
#: accounting gauges, not a measurement.
RECORD_OBJECT_BYTES = 200


class StoreBackend(ABC):
    """The record map of a single node.

    The store tracks how many records it holds and exposes insert /
    remove primitives used by migrations.  Reading a key that is not
    present raises :class:`StorageError` — in a correct simulation that
    means a router or migration lost track of ownership, and we want to
    fail loudly rather than fabricate data.

    Contract notes implementations must honour:

    * ``read`` may return a transient :class:`Record`; callers never
      mutate it directly — all mutation goes through ``write`` /
      ``restore`` / ``evict`` / ``install``.
    * ``write`` returns the pre-image *by value* (safe to stash in an
      undo log regardless of backend).
    * iteration order of ``keys()`` / ``iter_records()`` is
      deterministic for a given history but otherwise unspecified.
    """

    #: Registry name of the backend ("dict", "array").
    backend_name: str = "?"

    node_id: int

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, key: Key) -> bool: ...

    @abstractmethod
    def load(self, key: Key, value: int = 0, size: int = 0) -> None:
        """Populate a record at load time (version 0)."""

    def load_range(
        self, lo: int, hi: int, value: int = 0, size: int = 0
    ) -> None:
        """Bulk-load the contiguous integer keys ``[lo, hi)``.

        Backends override this when they can allocate the whole range at
        once; the default just loops :meth:`load`.  An empty range is a
        caller bug (a partitioner produced a zero-width span) on every
        backend.
        """
        if hi <= lo:
            raise StorageError(f"empty load range [{lo}, {hi})")
        for key in range(lo, hi):
            self.load(key, value, size)

    @abstractmethod
    def read(self, key: Key) -> Record:
        """Return the record (possibly transient — do not mutate)."""

    @abstractmethod
    def write(self, key: Key, txn_id: TxnId) -> Record:
        """Apply a write by ``txn_id``; returns the pre-image for undo."""

    @abstractmethod
    def restore(self, pre_image: Record) -> None:
        """Undo a write by restoring the saved pre-image."""

    @abstractmethod
    def evict(self, key: Key) -> Record:
        """Remove and return a record (the sending side of a migration)."""

    @abstractmethod
    def install(self, record: Record) -> None:
        """Insert a migrated record (the receiving side of a migration)."""

    @abstractmethod
    def keys(self) -> Iterable[Key]:
        """Iterate over held keys (order unspecified)."""

    @abstractmethod
    def iter_records(self) -> Iterator[Record]:
        """Iterate every held record (transient copies allowed)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Estimated resident bytes of the store's bookkeeping."""

    @abstractmethod
    def data_bytes(self) -> int:
        """Sum of the size tags of every held record (payload bytes)."""

    #: High-water mark of ``len(self)`` — updated on load/install.
    records_peak: int = 0


class RecordStore(StoreBackend):
    """Dict-of-:class:`Record` backend (the default)."""

    backend_name = "dict"

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._records: dict[Key, Record] = {}
        self.records_peak = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Key) -> bool:
        return key in self._records

    def load(self, key: Key, value: int = 0, size: int = 0) -> None:
        if key in self._records:
            raise StorageError(f"key {key!r} already loaded on node {self.node_id}")
        self._records[key] = Record(key=key, value=value, size=size)
        if len(self._records) > self.records_peak:
            self.records_peak = len(self._records)

    def read(self, key: Key) -> Record:
        """Return the live record (not a copy — versions are engine-owned)."""
        record = self._records.get(key)
        if record is None:
            raise StorageError(f"node {self.node_id} does not hold key {key!r}")
        return record

    def write(self, key: Key, txn_id: TxnId) -> Record:
        record = self.read(key)
        pre_image = record.copy()
        record.version += 1
        record.value = _mix(record.value, txn_id)
        return pre_image

    def restore(self, pre_image: Record) -> None:
        record = self._records.get(pre_image.key)
        if record is None:
            raise StorageError(
                f"cannot restore {pre_image.key!r}: not on node {self.node_id}"
            )
        record.version = pre_image.version
        record.value = pre_image.value

    def evict(self, key: Key) -> Record:
        record = self._records.pop(key, None)
        if record is None:
            raise StorageError(f"node {self.node_id} cannot evict absent {key!r}")
        return record

    def install(self, record: Record) -> None:
        if record.key in self._records:
            raise StorageError(
                f"node {self.node_id} already holds {record.key!r}; "
                "double migration detected"
            )
        self._records[record.key] = record
        if len(self._records) > self.records_peak:
            self.records_peak = len(self._records)

    def keys(self):
        return self._records.keys()

    def iter_records(self) -> Iterator[Record]:
        return iter(self._records.values())

    def memory_bytes(self) -> int:
        return len(self._records) * RECORD_OBJECT_BYTES

    def data_bytes(self) -> int:
        return sum(r.size for r in self._records.values())


class _Slab:
    """One contiguous key range ``[lo, hi)`` as parallel columns.

    ``versions``/``values`` are 64-bit unsigned columns; ``sizes`` is a
    32-bit size-tag column.  ``holes`` marks keys evicted out of the
    slab (migrated away); a key re-entering its home range is un-holed
    in place rather than spilled.
    """

    __slots__ = ("lo", "hi", "versions", "values", "sizes", "holes")

    def __init__(self, lo: int, hi: int, value: int, size: int) -> None:
        n = hi - lo
        self.lo = lo
        self.hi = hi
        if value:
            self.versions = array("Q", bytes(8 * n))
            self.values = array("Q", [value]) * n
        else:
            self.versions = array("Q", bytes(8 * n))
            self.values = array("Q", bytes(8 * n))
        # "I" (not "L") for a true 32-bit column: "L" is 8 bytes on
        # LP64 platforms, and byte-count maths must use the itemsize.
        self.sizes = (
            array("I", [size]) * n
            if size
            else array("I", bytes(array("I").itemsize * n))
        )
        self.holes: set[int] = set()

    def __len__(self) -> int:
        return (self.hi - self.lo) - len(self.holes)

    def nbytes(self) -> int:
        return (
            self.versions.itemsize * len(self.versions)
            + self.values.itemsize * len(self.values)
            + self.sizes.itemsize * len(self.sizes)
            + 64 * len(self.holes)
        )


class ArrayRecordStore(StoreBackend):
    """Array-slab backend for million-key nodes (no per-record objects).

    :meth:`load_range` allocates one slab per contiguous range; single
    loads and migrated-in foreign keys land in a per-object spill dict
    whose size is bounded by record *displacement* (the overlay), not
    the keyspace.  All hot-path operations on slab-resident keys are a
    bisect plus O(1) column accesses.
    """

    backend_name = "array"

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._slabs: list[_Slab] = []
        self._slab_los: list[int] = []
        self._spill: dict[Key, Record] = {}
        self._count = 0
        self._data_bytes = 0
        self.records_peak = 0

    # -- placement helpers ---------------------------------------------

    def _slab_for(self, key: Key) -> tuple[_Slab, int] | None:
        """The (slab, offset) holding ``key``, or None (hole or absent)."""
        if not isinstance(key, int) or not self._slabs:
            return None
        index = bisect_right(self._slab_los, key) - 1
        if index < 0:
            return None
        slab = self._slabs[index]
        if key >= slab.hi or (key - slab.lo) in slab.holes:
            return None
        return slab, key - slab.lo

    def _covering_slab(self, key: Key) -> _Slab | None:
        """The slab whose range covers ``key``, holes included."""
        if not isinstance(key, int) or not self._slabs:
            return None
        index = bisect_right(self._slab_los, key) - 1
        if index < 0:
            return None
        slab = self._slabs[index]
        return slab if key < slab.hi else None

    def _bump(self) -> None:
        self._count += 1
        if self._count > self.records_peak:
            self.records_peak = self._count

    # -- StoreBackend --------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Key) -> bool:
        return self._slab_for(key) is not None or key in self._spill

    def load(self, key: Key, value: int = 0, size: int = 0) -> None:
        if key in self:
            raise StorageError(f"key {key!r} already loaded on node {self.node_id}")
        slab = self._covering_slab(key)
        if slab is not None:
            offset = key - slab.lo
            slab.holes.discard(offset)
            slab.versions[offset] = 0
            slab.values[offset] = value
            slab.sizes[offset] = size
        else:
            self._spill[key] = Record(key=key, value=value, size=size)
        self._data_bytes += size
        self._bump()

    def load_range(
        self, lo: int, hi: int, value: int = 0, size: int = 0
    ) -> None:
        if hi <= lo:
            raise StorageError(f"empty load range [{lo}, {hi})")
        for slab in self._slabs:
            if lo < slab.hi and slab.lo < hi:
                raise StorageError(
                    f"range [{lo}, {hi}) overlaps slab "
                    f"[{slab.lo}, {slab.hi}) on node {self.node_id}"
                )
        if self._spill:
            for key in self._spill:
                if isinstance(key, int) and lo <= key < hi:
                    raise StorageError(
                        f"key {key!r} already loaded on node {self.node_id}"
                    )
        slab = _Slab(lo, hi, value, size)
        index = bisect_right(self._slab_los, lo)
        self._slabs.insert(index, slab)
        self._slab_los.insert(index, lo)
        self._count += hi - lo
        self._data_bytes += size * (hi - lo)
        if self._count > self.records_peak:
            self.records_peak = self._count

    def read(self, key: Key) -> Record:
        found = self._slab_for(key)
        if found is not None:
            slab, offset = found
            return Record(
                key, slab.versions[offset], slab.values[offset],
                slab.sizes[offset],
            )
        record = self._spill.get(key)
        if record is None:
            raise StorageError(f"node {self.node_id} does not hold key {key!r}")
        return record

    def write(self, key: Key, txn_id: TxnId) -> Record:
        found = self._slab_for(key)
        if found is not None:
            slab, offset = found
            version = slab.versions[offset]
            value = slab.values[offset]
            slab.versions[offset] = version + 1
            slab.values[offset] = _mix(value, txn_id)
            return Record(key, version, value, slab.sizes[offset])
        record = self._spill.get(key)
        if record is None:
            raise StorageError(f"node {self.node_id} does not hold key {key!r}")
        pre_image = record.copy()
        record.version += 1
        record.value = _mix(record.value, txn_id)
        return pre_image

    def restore(self, pre_image: Record) -> None:
        key = pre_image.key
        found = self._slab_for(key)
        if found is not None:
            slab, offset = found
            slab.versions[offset] = pre_image.version
            slab.values[offset] = pre_image.value
            return
        record = self._spill.get(key)
        if record is None:
            raise StorageError(
                f"cannot restore {key!r}: not on node {self.node_id}"
            )
        record.version = pre_image.version
        record.value = pre_image.value

    def evict(self, key: Key) -> Record:
        found = self._slab_for(key)
        if found is not None:
            slab, offset = found
            record = Record(
                key, slab.versions[offset], slab.values[offset],
                slab.sizes[offset],
            )
            slab.holes.add(offset)
            self._count -= 1
            self._data_bytes -= record.size
            return record
        record = self._spill.pop(key, None)
        if record is None:
            raise StorageError(f"node {self.node_id} cannot evict absent {key!r}")
        self._count -= 1
        self._data_bytes -= record.size
        return record

    def install(self, record: Record) -> None:
        key = record.key
        if key in self:
            raise StorageError(
                f"node {self.node_id} already holds {key!r}; "
                "double migration detected"
            )
        slab = self._covering_slab(key)
        if slab is not None:
            # The key returns to its home slab: un-hole it in place so
            # migration round trips do not grow the spill dict.
            offset = key - slab.lo
            slab.holes.discard(offset)
            slab.versions[offset] = record.version
            slab.values[offset] = record.value
            slab.sizes[offset] = record.size
        else:
            self._spill[key] = record
        self._data_bytes += record.size
        self._bump()

    def keys(self):
        for slab in self._slabs:
            holes = slab.holes
            if holes:
                for offset in range(slab.hi - slab.lo):
                    if offset not in holes:
                        yield slab.lo + offset
            else:
                yield from range(slab.lo, slab.hi)
        yield from self._spill.keys()

    def iter_records(self) -> Iterator[Record]:
        for slab in self._slabs:
            lo, holes = slab.lo, slab.holes
            versions, values, sizes = slab.versions, slab.values, slab.sizes
            for offset in range(slab.hi - lo):
                if offset in holes:
                    continue
                yield Record(
                    lo + offset, versions[offset], values[offset],
                    sizes[offset],
                )
        yield from self._spill.values()

    def memory_bytes(self) -> int:
        return (
            sum(slab.nbytes() for slab in self._slabs)
            + len(self._spill) * RECORD_OBJECT_BYTES
        )

    def data_bytes(self) -> int:
        return self._data_bytes

    def spill_size(self) -> int:
        """Displaced records held outside the slabs (diagnostics)."""
        return len(self._spill)


class ReplicaStore:
    """A node's replica *side-store* (adaptive read replication).

    Holds read-only copies of records whose primary lives elsewhere.
    Deliberately not a :class:`StoreBackend`: replicas never see writes,
    undo, or migration eviction — only sequenced installs and lock-free
    reads.  Keeping the type separate
    means :func:`state_fingerprint` (which walks primary stores) cannot
    accidentally hash replica copies, so enabling replication leaves
    every state digest untouched.

    Reading a key that is not present is a router bug (a replica read
    was planned at a node the directory never marked valid, or after an
    invalidation) and raises :class:`StorageError`.
    """

    __slots__ = ("node_id", "records", "records_peak", "installs_total")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.records: dict[Key, Record] = {}
        self.records_peak = 0
        self.installs_total = 0

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: Key) -> bool:
        return key in self.records

    def read(self, key: Key) -> Record:
        record = self.records.get(key)
        if record is None:
            raise StorageError(
                f"node {self.node_id} has no replica of key {key!r}"
            )
        return record

    def install(self, record: Record) -> None:
        """Insert or refresh a replica copy (sequenced install txns only)."""
        self.records[record.key] = record
        self.installs_total += 1
        if len(self.records) > self.records_peak:
            self.records_peak = len(self.records)


#: Backend registry keyed by ``ClusterConfig.store_backend``.
STORE_BACKENDS: dict[str, type[StoreBackend]] = {
    "dict": RecordStore,
    "array": ArrayRecordStore,
}


def make_store(backend: str, node_id: int) -> StoreBackend:
    """Construct the named store backend for one node."""
    cls = STORE_BACKENDS.get(backend)
    if cls is None:
        raise ConfigurationError(
            f"unknown store backend {backend!r}; "
            f"expected one of {sorted(STORE_BACKENDS)}"
        )
    return cls(node_id)


def state_fingerprint(stores: list[StoreBackend]) -> int:
    """Order-independent fingerprint of the whole cluster's data.

    XORs a per-record hash of (key, version, value).  Deliberately does
    *not* include which node holds the record: determinism in the paper's
    sense is about record *values* converging, while placement legitimately
    differs between routing strategies.  Placement determinism across two
    runs of the *same* strategy is asserted separately in tests by
    comparing per-node key sets.  Size tags are bookkeeping, not state,
    so they are excluded — both backends fingerprint identically.
    """
    fingerprint = 0
    for store in stores:
        for record in store.iter_records():
            h = hash((record.key, record.version, record.value))
            fingerprint ^= h & 0xFFFFFFFFFFFFFFFF
    return fingerprint
