"""The replica directory: who validly holds a read replica of what.

The directory is the replication layer's single source of truth, and it
is deliberately *range-granular*: keys are grouped into fixed ranges of
``range_records`` consecutive integer keys, and a node either holds a
valid replica of a whole range or of nothing in it.  Range granularity
matches the install path (copy chunks span whole ranges) and keeps the
per-batch invalidation pass O(written ranges), not O(written keys ×
holders).

Validity is an epoch comparison, not a flag:

* ``install(range_id, node, epoch)`` records that ``node``'s side-store
  holds a copy of the range whose content reflects every write sequenced
  *before* routing epoch ``epoch`` (the copy chunk's own routing
  position).
* ``invalidate(range_id, epoch)`` records that *some* write to the range
  was routed at ``epoch``.  It is a commutative max — replaying the same
  batch in any order of writes produces the same directory state.
* a holder is **valid** iff ``installed_epoch > last_invalidate`` —
  strictly greater, because a write routed in the same epoch as the
  install may serialize after the copy was read at its source.

Installs land at chunk *commit* (the coordinator's ``on_chunk``
callback), so a range is never valid before its data is physically in
the side-store; invalidations land at *routing*, before any routing
decision of the invalidating batch.  Together: no write is ever
sequenced between a valid holder's install and a read routed to it,
which is the whole determinism-and-coherence argument for lock-free
replica serves (DESIGN.md §16).

Outages (:class:`~repro.faults.plan.ReplicaOutageFault`) are modelled as
a node set overlaid on validity: an out node is excluded from every
valid-holder set while the window is active, without touching install
epochs — the holder becomes valid again the instant the window closes
(its side-store was never wrong, merely unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import NodeId

__all__ = ["ReplicaDirectory"]


@dataclass(slots=True)
class _RangeEntry:
    """Directory state for one key range."""

    #: holder node -> routing epoch of its most recent install.
    holders: dict[NodeId, int] = field(default_factory=dict)
    #: routing epoch of the most recent write into the range.
    last_invalidate: int = -1


class ReplicaDirectory:
    """Range-granular map of replica holders and their validity."""

    __slots__ = (
        "range_records",
        "_ranges",
        "_outages",
        "installs_total",
        "invalidations_total",
        "retires_total",
    )

    def __init__(self, range_records: int) -> None:
        if range_records < 1:
            raise ValueError("range_records must be >= 1")
        self.range_records = range_records
        self._ranges: dict[int, _RangeEntry] = {}
        self._outages: set[NodeId] = set()
        self.installs_total = 0
        self.invalidations_total = 0
        self.retires_total = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def span_of(self, range_id: int) -> tuple[int, int]:
        """The ``[lo, hi)`` key interval of a range."""
        lo = range_id * self.range_records
        return lo, lo + self.range_records

    # ------------------------------------------------------------------
    # Mutation (sequenced call sites only)
    # ------------------------------------------------------------------

    def install(self, range_id: int, node: NodeId, epoch: int) -> None:
        """Record that ``node`` holds the range as of routing ``epoch``.

        Called from the install chunk's commit callback.  Re-installing
        keeps the newer epoch (a refresh after invalidation).
        """
        entry = self._ranges.get(range_id)
        if entry is None:
            entry = _RangeEntry()
            self._ranges[range_id] = entry
        current = entry.holders.get(node)
        if current is None or epoch > current:
            entry.holders[node] = epoch
        self.installs_total += 1

    def invalidate(self, range_id: int, epoch: int) -> None:
        """Record a write into the range routed at ``epoch``.

        Only ranges with directory entries pay anything; the commutative
        max makes the per-batch pass order-independent.  Holder entries
        are *kept* (and their side-store copies survive until a budget
        retirement fences them out): an in-flight replica read
        dispatched in an earlier epoch may still be serving from the
        copy, and a later re-install refreshes the same entry.
        """
        entry = self._ranges.get(range_id)
        if entry is None:
            return
        if epoch > entry.last_invalidate:
            entry.last_invalidate = epoch
        self.invalidations_total += 1

    def retire(self, range_id: int, node: NodeId) -> None:
        """Drop a holder from the directory (directory-only retirement).

        Called at routing time when a node's side-store exceeds its
        budget (:class:`~repro.replication.provision.ReplicaProvisioner`
        plans the victims).  Retiring only stops the router from
        choosing the holder again; the node's side-store keeps the copy
        until every transaction routed *before* the retirement has
        finished — an in-flight replica read dispatched in an earlier
        epoch may still serve from it.  The coordinator performs that
        fenced physical drop (see
        :meth:`~repro.replication.coordinator.ReplicationCoordinator`).
        """
        entry = self._ranges.get(range_id)
        if entry is not None and node in entry.holders:
            del entry.holders[node]
            self.retires_total += 1

    # ------------------------------------------------------------------
    # Outage overlay (fault injection)
    # ------------------------------------------------------------------

    def set_outage(self, node: NodeId) -> None:
        self._outages.add(node)

    def clear_outage(self, node: NodeId) -> None:
        self._outages.discard(node)

    @property
    def outages(self) -> frozenset[NodeId]:
        return frozenset(self._outages)

    # ------------------------------------------------------------------
    # Queries (routing-time)
    # ------------------------------------------------------------------

    def valid_holders(
        self, range_id: int, active_nodes: list[NodeId]
    ) -> list[NodeId]:
        """Nodes whose replica of the range is currently valid, sorted.

        Validity is the strict epoch inequality; crashed nodes (absent
        from ``active_nodes``) and nodes under a replica outage are
        excluded.  The sorted order makes every downstream tie-break a
        pure function of the sequenced input.
        """
        entry = self._ranges.get(range_id)
        if entry is None or not entry.holders:
            return []
        floor = entry.last_invalidate
        outages = self._outages
        holders = [
            node
            for node, installed in entry.holders.items()
            if installed > floor and node not in outages
        ]
        if not holders:
            return []
        active = set(active_nodes)
        holders = [node for node in holders if node in active]
        holders.sort()
        return holders

    def is_valid_holder(
        self, range_id: int, node: NodeId, active_nodes: list[NodeId]
    ) -> bool:
        return node in self.valid_holders(range_id, active_nodes)

    def is_holder(self, range_id: int, node: NodeId) -> bool:
        """Whether ``node`` holds the range at all, valid or stale."""
        entry = self._ranges.get(range_id)
        return entry is not None and node in entry.holders

    def holdings(self) -> list[tuple[int, NodeId, int, int]]:
        """Every holder entry as ``(range_id, node, installed_epoch,
        last_invalidate)``, sorted — the budget accountant's view.

        Staleness is derivable (``installed <= last_invalidate``): stale
        copies still occupy side-store bytes, so retirement planning
        must see them alongside the valid ones.
        """
        rows = [
            (range_id, node, installed, entry.last_invalidate)
            for range_id, entry in self._ranges.items()
            for node, installed in entry.holders.items()
        ]
        rows.sort()
        return rows

    def tracked_ranges(self) -> list[int]:
        """Every range id with a directory entry, sorted."""
        return sorted(self._ranges)

    def holder_count(self, range_id: int) -> int:
        entry = self._ranges.get(range_id)
        return len(entry.holders) if entry is not None else 0

    def stats_snapshot(self) -> dict[str, int]:
        return {
            "replica_installs": self.installs_total,
            "replica_invalidations": self.invalidations_total,
            "replica_retires": self.retires_total,
            "replica_ranges_tracked": len(self._ranges),
        }
