"""Storage substrate: per-node record stores, partitioners, and logs.

Each simulated node owns a :class:`RecordStore` (a main-memory key→record
map).  *Static* placement — where a record lives before any fusion or
migration — is described by a :class:`Partitioner`.  Live ownership may
differ: the engine overlays the fusion table (or a baseline's migration
state) on top of the static map.

Durability pieces (:class:`UndoLog`, :class:`CommandLog`) model Section 4.3 of the paper: user aborts roll back
via undo records, and recovery replays the command log deterministically.
"""

from repro.storage.partitioning import (
    HashPartitioner,
    KeyedPartitioner,
    Partitioner,
    RangePartitioner,
    make_uniform_ranges,
)
from repro.storage.store import (
    STORE_BACKENDS,
    ArrayRecordStore,
    Record,
    RecordStore,
    StoreBackend,
    make_store,
    state_fingerprint,
)
from repro.storage.wal import CommandLog, UndoLog

__all__ = [
    "ArrayRecordStore",
    "CommandLog",
    "HashPartitioner",
    "KeyedPartitioner",
    "Partitioner",
    "RangePartitioner",
    "Record",
    "RecordStore",
    "STORE_BACKENDS",
    "StoreBackend",
    "UndoLog",
    "make_store",
    "make_uniform_ranges",
    "state_fingerprint",
]
