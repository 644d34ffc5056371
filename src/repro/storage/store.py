"""Per-node main-memory record store: columnar slabs plus a spill dict.

Records carry a version counter and a value fingerprint rather than real
payloads: the simulation never needs the bytes, but it *does* need to
prove that every run reaches the same final state.  A write mixes the
writing transaction's id into the value, so the cluster-wide
:func:`state_fingerprint` changes if any run ever writes a different
value, a different version, or places a record on a different node's
store at a different time of migration.

:class:`RecordStore` keeps the bulk of a node's keyspace in contiguous
integer-range *slabs*: ``array('Q')`` version and value columns plus an
``array('I')`` column of size tags, 20 bytes per resident record and no
per-record Python object (21 B per record under ``tracemalloc``, against
125 B for a dict of :class:`Record` objects).  A key evicted from its
slab leaves a *hole* that ``install``/``load`` re-fill in place.  Only
non-integer keys, single loads outside every slab and records migrated
in from another node's range live as :class:`Record` objects in a spill
dict, and that displacement is bounded by the overlay (fusion-table
capacity), not by the keyspace.

The store speaks :class:`Record` at its edges: ``evict``/``install``
move records during migration.  The hot paths,
:meth:`RecordStore.read_value` and :meth:`RecordStore.write`, build no
object for a slab-resident key.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import StorageError
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


#: Nominal resident cost of one spilled ``Record`` (object header +
#: three boxed ints + dict slot).  A bookkeeping estimate for the memory
#: accounting gauges, not a measurement.
RECORD_OBJECT_BYTES = 200


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
        self.versions = array("Q", bytes(8 * n))
        self.values = (
            array("Q", [value]) * n if value else array("Q", bytes(8 * n))
        )
        # "I" (not "L") for a true 32-bit column: "L" is 8 bytes on
        # LP64 platforms, and byte-count maths must use the itemsize.
        self.sizes = (
            array("I", [size]) * n
            if size
            else array("I", bytes(array("I").itemsize * n))
        )
        self.holes: set[int] = set()

    def nbytes(self) -> int:
        return (
            self.versions.itemsize * len(self.versions)
            + self.values.itemsize * len(self.values)
            + self.sizes.itemsize * len(self.sizes)
            + 64 * len(self.holes)
        )


class RecordStore:
    """The record map of a single node.

    :meth:`load_range` allocates one slab per contiguous range; single
    loads and migrated-in foreign keys land in the spill dict.  Every
    lookup asks the spill dict first, then bisects to the slab, whose
    columns it reads and writes in O(1).  Reading a key that is not present raises
    :class:`StorageError` — in a correct simulation that means a router
    or migration lost track of ownership, and we want to fail loudly
    rather than fabricate data.

    ``read`` returns a transient :class:`Record` for a slab key; callers
    never mutate it — all mutation goes through ``write`` / ``evict`` /
    ``install``.  Iteration (``keys()`` /
    ``iter_records()``) walks the slabs in key order, then the spill
    dict in insertion order.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._slabs: list[_Slab] = []
        self._slab_los: list[int] = []
        self._spill: dict[Key, Record] = {}
        self._count = 0
        self._data_bytes = 0
        #: High-water mark of ``len(self)`` — updated on load/install.
        self.records_peak = 0

    # -- placement helpers ---------------------------------------------

    def _covering_slab(self, key: Key) -> _Slab | None:
        """The slab whose range covers ``key``, holes included.

        A key a slab covers is never in the spill dict (``load_range``
        rejects a range over a spilled key; ``load`` and ``install``
        re-fill the hole), so the slab alone says whether it is held.
        """
        if not isinstance(key, int) or not self._slabs:
            return None
        index = bisect_right(self._slab_los, key) - 1
        if index < 0:
            return None
        slab = self._slabs[index]
        return slab if key < slab.hi else None

    # -- the store -----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Key) -> bool:
        slab = self._covering_slab(key)
        if slab is not None:
            return (key - slab.lo) not in slab.holes
        return key in self._spill

    def load(self, key: Key, value: int = 0, size: int = 0) -> None:
        """Populate a record at load time (version 0)."""
        self.install(Record(key, 0, value, size))

    def load_range(
        self, lo: int, hi: int, value: int = 0, size: int = 0
    ) -> None:
        """Bulk-load the contiguous integer keys ``[lo, hi)`` as one slab.

        An empty range is a caller bug (a partitioner produced a
        zero-width span), and so is one that overlaps a held key.
        """
        if hi <= lo:
            raise StorageError(f"empty load range [{lo}, {hi})")
        for slab in self._slabs:
            if lo < slab.hi and slab.lo < hi:
                raise StorageError(
                    f"range [{lo}, {hi}) overlaps slab "
                    f"[{slab.lo}, {slab.hi}) on node {self.node_id}"
                )
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

    def read_value(self, key: Key) -> int:
        """The record's value fingerprint; builds no object for a slab key.

        The spill dict is asked first: a key a slab covers is never in
        it, and the records migration moves — the hot ones — live there.
        The slab lookup is ``_covering_slab``'s, inlined on the two hot
        paths (this and :meth:`write`).
        """
        record = self._spill.get(key)
        if record is not None:
            return record.value
        if isinstance(key, int) and self._slabs:
            index = bisect_right(self._slab_los, key) - 1
            if index >= 0:
                slab = self._slabs[index]
                offset = key - slab.lo
                if key < slab.hi and offset not in slab.holes:
                    return slab.values[offset]
        raise StorageError(f"node {self.node_id} does not hold key {key!r}")

    def read(self, key: Key) -> Record:
        """A copy of the whole record; later writes leave it as it was."""
        record = self._spill.get(key)
        if record is not None:
            return record.copy()
        slab = self._covering_slab(key)
        if slab is None or (offset := key - slab.lo) in slab.holes:
            raise StorageError(
                f"node {self.node_id} does not hold key {key!r}"
            )
        return Record(
            key, slab.versions[offset], slab.values[offset],
            slab.sizes[offset],
        )

    def write(self, key: Key, txn_id: TxnId) -> None:
        """Apply a write by ``txn_id``: bump the version, mix the value."""
        record = self._spill.get(key)
        if record is not None:
            record.version += 1
            record.value = _mix(record.value, txn_id)
            return
        if isinstance(key, int) and self._slabs:
            index = bisect_right(self._slab_los, key) - 1
            if index >= 0:
                slab = self._slabs[index]
                offset = key - slab.lo
                if key < slab.hi and offset not in slab.holes:
                    versions, values = slab.versions, slab.values
                    versions[offset] += 1
                    values[offset] = _mix(values[offset], txn_id)
                    return
        raise StorageError(f"node {self.node_id} does not hold key {key!r}")

    def evict(self, key: Key) -> Record:
        """Remove and return a record (the sending side of a migration)."""
        record = self._spill.pop(key, None)
        if record is None:
            slab = self._covering_slab(key)
            if slab is None or (offset := key - slab.lo) in slab.holes:
                raise StorageError(
                    f"node {self.node_id} cannot evict absent {key!r}"
                )
            record = Record(
                key, slab.versions[offset], slab.values[offset],
                slab.sizes[offset],
            )
            slab.holes.add(offset)
        self._count -= 1
        self._data_bytes -= record.size
        return record

    def install(self, record: Record) -> None:
        """Insert a migrated record (the receiving side of a migration).

        A key returning to its home slab is un-holed in place, so
        migration round trips do not grow the spill dict.  Installing a
        held key means a double migration (or a double load), and raises.
        """
        key = record.key
        slab = self._covering_slab(key)
        if slab is not None:
            offset = key - slab.lo
            holes = slab.holes
            if offset not in holes:
                raise StorageError(
                    f"node {self.node_id} already holds {key!r}"
                )
            holes.remove(offset)
            slab.versions[offset] = record.version
            slab.values[offset] = record.value
            slab.sizes[offset] = record.size
        elif key in self._spill:
            raise StorageError(f"node {self.node_id} already holds {key!r}")
        else:
            self._spill[key] = record
        self._data_bytes += record.size
        self._count += 1
        if self._count > self.records_peak:
            self.records_peak = self._count

    def keys(self) -> Iterator[Key]:
        """Every held key: slab keys in order, then the spill dict's."""
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
        """Every held record, in :meth:`keys` order (slab ones transient)."""
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
        """Estimated resident bytes of the store's bookkeeping."""
        return (
            sum(slab.nbytes() for slab in self._slabs)
            + len(self._spill) * RECORD_OBJECT_BYTES
        )

    def data_bytes(self) -> int:
        """Sum of the size tags of every held record (payload bytes)."""
        return self._data_bytes

    def spill_size(self) -> int:
        """Displaced records held outside the slabs (diagnostics)."""
        return len(self._spill)


class ReplicaStore:
    """A node's replica *side-store* (adaptive read replication).

    Holds read-only copies of records whose primary lives elsewhere.
    Deliberately not a :class:`RecordStore`: replicas never see writes
    or migration eviction — only sequenced installs and lock-free
    reads.  Keeping the type separate
    means :func:`state_fingerprint` (which walks primary stores) cannot
    accidentally hash replica copies, so enabling replication leaves
    every state digest untouched.

    Reading a key that is not present is a router bug (a replica read
    was planned at a node the directory never marked valid, or after an
    invalidation) and raises :class:`StorageError`.
    """

    __slots__ = ("node_id", "records", "records_peak")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.records: dict[Key, Record] = {}
        self.records_peak = 0

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
        if len(self.records) > self.records_peak:
            self.records_peak = len(self.records)


def state_fingerprint(stores: list[RecordStore]) -> int:
    """Order-independent fingerprint of the whole cluster's data.

    XORs a per-record hash of (key, version, value).  Deliberately does
    *not* include which node holds the record: determinism in the paper's
    sense is about record *values* converging, while placement legitimately
    differs between routing strategies.  Placement determinism across two
    runs of the *same* strategy is asserted separately in tests by
    comparing per-node key sets.  Size tags are bookkeeping, not state,
    so they are excluded, and so is whether a record sits in a slab or in
    the spill dict.
    """
    fingerprint = 0
    for store in stores:
        for record in store.iter_records():
            h = hash((record.key, record.version, record.value))
            fingerprint ^= h & 0xFFFFFFFFFFFFFFFF
    return fingerprint
