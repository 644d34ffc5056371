"""Dynamic machine provisioning (Section 3.3).

Adding or removing a node moves a partition that contains both hot and
cold records.  Hermes splits the move:

* **Hot records** (those in the fusion table) migrate through data
  fusion: a :class:`TopologyChange` transaction — totally ordered like
  any other — tells every scheduler replica to include the new node in
  (or exclude the removed node from) routing, and the prescient router
  starts fusing hot records onto the new node immediately.
* **Cold records** migrate through Squall-style chunked background
  transactions (:class:`ChunkMigration`), each moving a contiguous key
  range and updating the static range map.  Chunks *skip* records the
  fusion table has displaced, so background migration rarely conflicts
  with foreground transactions — the isolation property Figure 14
  demonstrates.

:class:`HybridMigrationPlanner` builds both pieces for scale-out and
consolidation events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId
from repro.storage.partitioning import RangePartitioner


@dataclass(frozen=True, slots=True)
class TopologyChange:
    """Payload of a TOPOLOGY transaction: the new active-node set."""

    active_nodes: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if not self.active_nodes:
            raise ConfigurationError("topology change must leave nodes active")

    def __iter__(self):
        return iter(self.active_nodes)


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


class HybridMigrationPlanner:
    """Builds topology-change + cold-chunk plans for provisioning events."""

    def __init__(self, chunk_records: int = 1000) -> None:
        if chunk_records < 1:
            raise ConfigurationError("chunk_records must be >= 1")
        self.chunk_records = chunk_records

    def _chunk_range(
        self, src: NodeId, dst: NodeId, lo: int, hi: int
    ) -> list[ChunkMigration]:
        chunks = []
        for start in range(lo, hi, self.chunk_records):
            stop = min(start + self.chunk_records, hi)
            chunks.append(
                ChunkMigration(
                    src=src,
                    dst=dst,
                    keys=tuple(range(start, stop)),
                    range_reassign=(start, stop),
                )
            )
        return chunks

    def plan_scale_out(
        self,
        current_nodes: list[NodeId],
        new_node: NodeId,
        moves: list[tuple[NodeId, int, int]],
    ) -> tuple[TopologyChange, ColdMigrationPlan]:
        """Add ``new_node``; cold-migrate the given ranges onto it.

        ``moves`` lists (src node, key lo, key hi) ranges to hand to the
        new node — typically the hot tenant's range, as in the paper's
        scale-out experiment.
        """
        if new_node in current_nodes:
            raise ConfigurationError(f"node {new_node} is already active")
        chunks: list[ChunkMigration] = []
        for src, lo, hi in moves:
            if hi <= lo:
                raise ConfigurationError(f"empty move range [{lo}, {hi})")
            chunks.extend(self._chunk_range(src, new_node, lo, hi))
        topology = TopologyChange(tuple(sorted([*current_nodes, new_node])))
        return topology, ColdMigrationPlan(tuple(chunks))

    def plan_consolidation(
        self,
        current_nodes: list[NodeId],
        removed_node: NodeId,
        partitioner: RangePartitioner,
        key_lo: int,
        key_hi: int,
    ) -> tuple[TopologyChange, ColdMigrationPlan]:
        """Remove ``removed_node``; spread its static ranges round-robin.

        Enumerates the departing node's segments from the live range map
        and assigns successive chunks to the surviving nodes in rotation,
        keeping the hand-off balanced without any workload knowledge.
        """
        survivors = sorted(n for n in current_nodes if n != removed_node)
        if not survivors:
            raise ConfigurationError("cannot consolidate the last node")
        if removed_node not in current_nodes:
            raise ConfigurationError(f"node {removed_node} is not active")

        chunks: list[ChunkMigration] = []
        run: list[int] = []
        rotation = 0

        def flush(run_keys: list[int]) -> None:
            nonlocal rotation
            if not run_keys:
                return
            dst = survivors[rotation % len(survivors)]
            rotation += 1
            chunks.append(
                ChunkMigration(
                    src=removed_node,
                    dst=dst,
                    keys=tuple(run_keys),
                    range_reassign=(run_keys[0], run_keys[-1] + 1),
                )
            )

        previous: int | None = None
        for key in partitioner.keys_owned_by(removed_node, key_lo, key_hi):
            contiguous = previous is not None and key == previous + 1
            if run and (not contiguous or len(run) >= self.chunk_records):
                flush(run)
                run = []
            run.append(key)
            previous = key
        flush(run)

        topology = TopologyChange(tuple(survivors))
        return topology, ColdMigrationPlan(tuple(chunks))
