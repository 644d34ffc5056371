"""Storage substrate: per-node record stores, partitioners, and logs.

Each simulated node owns a :class:`RecordStore` (a main-memory
key→record map kept in columnar integer-range slabs, with a spill dict
for displaced and non-integer keys).  *Static* placement — where a
record lives before any fusion or migration — is described by a
:class:`Partitioner`.  Live ownership may differ: the engine overlays
the fusion table (or a baseline's migration state) on top of the static
map.

The :class:`CommandLog` models Section 4.3 of the paper: recovery
replays it deterministically.  No undo log is needed: a transaction's
abort is settled before its first write, so an abort writes nothing.
"""
