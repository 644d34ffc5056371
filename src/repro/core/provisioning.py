"""Dynamic machine provisioning (Section 3.3).

Adding or removing a node moves a partition that contains both hot and
cold records.  Hermes splits the move:

* **Hot records** (those in the fusion table) migrate through data
  fusion: a TOPOLOGY transaction — totally ordered like any other, its
  payload the sorted active-node tuple
  :meth:`~repro.engine.cluster.Cluster.announce_topology` builds —
  tells every scheduler replica to include the new node in (or exclude
  the removed node from) routing, and the prescient router starts
  fusing hot records onto the new node immediately.
* **Cold records** migrate through Squall-style chunked background
  transactions (:class:`ChunkMigration`), each moving a contiguous key
  range and updating the static range map.  Chunks *skip* records the
  fusion table has displaced, so background migration rarely conflicts
  with foreground transactions — the isolation property Figure 14
  demonstrates.

:func:`range_chunks` is the one cold planner: it cuts a key range into
chunks.  :func:`plan_scale_out` and :func:`plan_consolidation` build a
resize's cold plan from it; the caller announces the new active set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId
from repro.storage.partitioning import RangePartitioner


@dataclass(frozen=True, slots=True)
class ChunkMigration:
    """Payload of a MIGRATION transaction: one cold chunk.

    ``keys`` is the chunk's key list; ``range_reassign`` optionally names
    an integer range ``[lo, hi)`` whose *static home* becomes ``dst``
    when the chunk is planned (range-partitioned keyspaces only).

    ``copy`` turns the chunk into a *replica install* (adaptive read
    replication): the sources keep their records and ``dst`` receives
    copies into its replica side-store.  Copy chunks are planned by
    :func:`repro.core.router.build_replica_install_plan`, never by
    :func:`repro.core.router.build_chunk_migration_plan` — primary
    ownership must not change.
    """

    src: NodeId
    dst: NodeId
    keys: tuple
    range_reassign: tuple[int, int] | None = None
    copy: bool = False

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError("chunk migration to its own node")
        if self.copy and self.range_reassign is not None:
            raise ConfigurationError(
                "a copy chunk cannot reassign static homes"
            )


@dataclass(frozen=True, slots=True)
class ColdMigrationPlan:
    """An ordered list of chunks the migration controller will inject."""

    chunks: tuple[ChunkMigration, ...]

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self):
        return iter(self.chunks)

    def total_keys(self) -> int:
        return sum(len(chunk.keys) for chunk in self.chunks)

    def remainder_excluding(
        self, done: Iterable[ChunkMigration]
    ) -> "ColdMigrationPlan":
        """The sub-plan of chunks not in ``done``, in original order.

        Chunks are frozen (hashable) dataclasses, so membership is by
        value.  Crash recovery uses this to resume a migration from its
        WAL-visible history: chunks the durable order already contains
        must not be re-planned under fresh transaction ids.
        """
        done_set = frozenset(done)
        return ColdMigrationPlan(
            tuple(c for c in self.chunks if c not in done_set)
        )


def range_chunks(
    src: NodeId, dst: NodeId, lo: int, hi: int, chunk_records: int
) -> ColdMigrationPlan:
    """Cut ``[lo, hi)`` into ``chunk_records``-sized chunks from ``src``
    to ``dst``, each re-homing its own sub-range when it is planned."""
    if hi <= lo:
        raise ConfigurationError(f"empty range [{lo}, {hi})")
    chunks = []
    for start in range(lo, hi, chunk_records):
        stop = min(start + chunk_records, hi)
        chunks.append(
            ChunkMigration(
                src=src,
                dst=dst,
                keys=tuple(range(start, stop)),
                range_reassign=(start, stop),
            )
        )
    return ColdMigrationPlan(tuple(chunks))


def plan_scale_out(
    new_node: NodeId,
    moves: Iterable[tuple[NodeId, int, int]],
    chunk_records: int,
) -> ColdMigrationPlan:
    """Cold-migrate each ``(src, lo, hi)`` range of ``moves`` onto
    ``new_node``, in the order given."""
    return ColdMigrationPlan(tuple(
        chunk
        for src, lo, hi in moves
        for chunk in range_chunks(src, new_node, lo, hi, chunk_records)
    ))


def plan_consolidation(
    removed_node: NodeId,
    survivors: list[NodeId],
    partitioner: RangePartitioner,
    key_lo: int,
    key_hi: int,
    chunk_records: int,
) -> ColdMigrationPlan:
    """Drain ``removed_node``'s static spans within ``[key_lo, key_hi)``.

    Each span the live range map gives the departing node is chunked on
    its own, and the chunks are dealt round-robin over ``survivors`` in
    span order, keeping the hand-off balanced without any workload
    knowledge.
    """
    if not survivors:
        raise ConfigurationError("cannot consolidate the last node")
    chunks = [
        chunk
        for lo, hi, owner in partitioner.owner_spans(key_lo, key_hi)
        if owner == removed_node
        for chunk in range_chunks(
            removed_node, survivors[0], lo, hi, chunk_records
        )
    ]
    return ColdMigrationPlan(tuple(
        replace(chunk, dst=survivors[index % len(survivors)])
        for index, chunk in enumerate(chunks)
    ))
