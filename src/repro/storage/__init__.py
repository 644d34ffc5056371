"""Storage substrate: per-node record stores, partitioners, and logs.

Each simulated node owns a :class:`RecordStore` (a main-memory
key→record map kept in columnar integer-range slabs, with a spill dict
for displaced and non-integer keys).  *Static* placement — where a
record lives before any fusion or migration — is described by a
:class:`Partitioner`.  Live ownership may differ: the engine overlays
the fusion table (or a baseline's migration state) on top of the static
map.

Durability pieces (:class:`UndoLog`, :class:`CommandLog`) model Section 4.3 of the paper: user aborts roll back
via undo records, and recovery replays the command log deterministically.
"""
