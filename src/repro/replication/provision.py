"""Replica provisioning: choosing which ranges to replicate where.

The provisioner looks at the same forecast window the router plans
against and asks one question per predicted transaction: *which remote
reads would a replica have absorbed?*  For every multi-owner predicted
transaction it charges demand to ``(range, best_master)`` pairs — the
node that would master the transaction (its majority owner) wants local
replicas of the read-only keys it would otherwise fetch remotely.
Writes never charge demand: written keys migrate (data fusion), they do
not replicate, and a replica of a write-hot range would be invalidated
every epoch anyway.

The top-ranked pairs become full-range copy chunks
(:class:`~repro.core.provisioning.ChunkMigration` with ``copy=True``)
that the :class:`~repro.replication.coordinator.ReplicationCoordinator`
runs through the ordinary migration session machinery — generation
tagged, pausable, chaos-safe.  With ``fanout > 1`` each selected range
is additionally copied to the next eligible holders, so a *single* hot
consumer still ends up with several holders to clone reads across
(clone mode forces an effective fanout of at least two — one holder per
range makes request cloning vacuous).

Ranking and every tie-break are pure sorts, so the provisioning
schedule is a deterministic function of the forecast stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.types import Batch, NodeId
from repro.core.provisioning import ChunkMigration
from repro.core.router import ClusterView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.directory import ReplicaDirectory

__all__ = ["ReplicaProvisioner"]

#: Copy chunks one provision cycle may plan, fanout copies included.
MAX_RANGES_PER_CYCLE = 8


class ReplicaProvisioner:
    """Turns forecast demand into ranked replica-install chunks."""

    __slots__ = ("range_records", "key_lo", "key_hi", "fanout")

    def __init__(
        self, range_records: int, key_lo: int, key_hi: int, fanout: int = 1
    ) -> None:
        self.range_records = range_records
        self.key_lo = key_lo
        self.key_hi = key_hi
        self.fanout = fanout

    def plan(
        self,
        predicted: Batch,
        view: ClusterView,
        directory: "ReplicaDirectory",
    ) -> list[ChunkMigration]:
        """Rank replica demand in ``predicted`` into install chunks.

        Returns at most :data:`MAX_RANGES_PER_CYCLE` chunks, highest demand
        first; pairs whose target already validly holds the range, and
        ranges the target fully owns, are skipped.  With ``fanout > 1``
        each selected range fans out to further eligible holders
        (rotated over the active set by range id), still within the
        per-cycle chunk budget.
        """
        range_records = self.range_records
        ownership = view.ownership
        # Ranges the forecast expects writes into replicate badly: every
        # write invalidates the whole range, so a copy would be stale
        # before anything read it.  Exclude them from demand outright.
        write_hot: set[int] = set()
        for txn in predicted:
            for key in txn.ordered_keys:
                if key in txn.write_set and type(key) is int:
                    write_hot.add(key // range_records)
        demand: dict[tuple[int, NodeId], int] = {}
        for txn in predicted:
            if txn.is_system():
                continue
            keys = [k for k in txn.ordered_keys if type(k) is int]
            if len(keys) < 2:
                continue
            owners = ownership.owners_bulk(keys)
            counts: dict[NodeId, int] = {}
            for owner in owners:
                counts[owner] = counts.get(owner, 0) + 1
            if len(counts) < 2:
                continue  # single-owner footprint: already local
            # The node this transaction would master under single-master
            # routing: most keys, smallest id on ties (mirrors
            # majority_owner's determinism without per-txn tie noise).
            best = min(counts, key=lambda n: (-counts[n], n))
            write_set = txn.write_set
            for key, owner in zip(keys, owners):
                if owner == best or key in write_set:
                    continue
                range_id = key // range_records
                if range_id in write_hot:
                    continue
                demand[(range_id, best)] = (
                    demand.get((range_id, best), 0) + 1
                )

        if not demand:
            return []
        ranked = sorted(
            demand.items(), key=lambda item: (-item[1], item[0])
        )
        active = view.active_nodes
        chunks: list[ChunkMigration] = []
        planned: set[tuple[int, NodeId]] = set()

        def plan_copy(range_id: int, dst: NodeId) -> bool:
            if (range_id, dst) in planned:
                return False
            if directory.is_valid_holder(range_id, dst, active):
                return False
            lo = max(range_id * range_records, self.key_lo)
            hi = min((range_id + 1) * range_records, self.key_hi)
            if lo >= hi:
                return False
            span = tuple(range(lo, hi))
            owners = ownership.owners_bulk(span)
            src: NodeId | None = None
            for owner in owners:
                if owner != dst:
                    src = owner
                    break
            if src is None:
                return False  # dst owns the whole range: nothing to copy
            planned.add((range_id, dst))
            chunks.append(
                ChunkMigration(src=src, dst=dst, keys=span, copy=True)
            )
            return True

        for (range_id, dst), _count in ranked:
            if len(chunks) >= MAX_RANGES_PER_CYCLE:
                break
            plan_copy(range_id, dst)
            if self.fanout < 2:
                continue
            # Fan the same range out to further holders so a single
            # consumer's demand still yields clone targets.  Existing
            # valid holders (and copies planned this cycle) count
            # toward the target, so a range that already has ``fanout``
            # holders stays put instead of creeping onto every node.
            covered = len(
                directory.valid_holders(range_id, active)
            ) + sum(
                1 for rid, _node in planned if rid == range_id  # sanitize: ok(order-independent count of a set)
            )
            extras = self.fanout - covered
            # Rotating the candidate order by range id spreads holders
            # instead of piling every extra copy onto the lowest ids.
            candidates = sorted(active)
            start = range_id % len(candidates)
            for cand in candidates[start:] + candidates[:start]:
                if extras <= 0 or len(chunks) >= MAX_RANGES_PER_CYCLE:
                    break
                if cand == dst:
                    continue
                if plan_copy(range_id, cand):
                    extras -= 1
        return chunks
