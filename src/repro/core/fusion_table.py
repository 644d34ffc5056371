"""The fusion table (Sections 3.1 and 4.1).

A bounded (record key → partition id) map tracking the live placement of
*hot* records — records the prescient router has fused away from their
static home.  Key properties reproduced from the paper:

* **Replicated by determinism.**  Every scheduler replica holds a copy
  and applies the same deterministic updates in the same total order, so
  the replicas never diverge.  In this single-process simulation we keep
  one instance and assert determinism across runs in the tests.
* **Bounded with deterministic eviction.**  When the table exceeds its
  capacity the scheduler evicts entries by FIFO or LRU (both
  deterministic) and attaches the evicted keys to the transaction being
  routed, which migrates the records back to their static homes after
  commit (Section 4.1).
* **Home entries are never stored.**  A record fused back onto its
  static home simply disappears from the table — the table only holds
  genuinely displaced records, which is what keeps 2.5 % of the database
  enough capacity in the paper's experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.common.config import FusionConfig
from repro.common.types import Key, NodeId


class FusionTable:
    """Bounded key→partition overlay with FIFO/LRU eviction.

    Implements the :class:`repro.core.router.KeyOverlay` protocol, so an
    :class:`OwnershipView` can layer it directly over a static
    partitioner.  ``put`` returns the (key, owner) pairs that were
    evicted; the router turns those into send-home migrations.

    Note ``put`` callers are responsible for not inserting keys that sit
    at their static home — the table itself has no notion of "home"; the
    :class:`OwnershipView` enforces that invariant via ``record_move``.
    """

    def __init__(self, config: FusionConfig | None = None) -> None:
        self.config = config if config is not None else FusionConfig()
        self._entries: OrderedDict[Key, NodeId] = OrderedDict()
        self.evictions_total = 0
        self.inserts_total = 0
        self.hits_total = 0
        self.misses_total = 0

    # -- KeyOverlay protocol ---------------------------------------------

    def get(self, key: Key) -> NodeId | None:
        """Live owner of ``key``; refreshes recency under LRU."""
        node = self._entries.get(key)
        if node is not None:
            self.hits_total += 1
            if self.config.eviction == "lru":
                self._entries.move_to_end(key)
        else:
            self.misses_total += 1
        return node

    def get_bulk(self, keys: Sequence[Key]) -> list[NodeId | None]:
        """One lookup per key, in order — the batch-routing fast path.

        Exactly equivalent to ``[self.get(k) for k in keys]``, including
        the per-hit LRU recency refresh in the same order, but pays one
        method call for the whole batch instead of one per key.
        """
        entries = self._entries
        lookup = entries.get
        lru = self.config.eviction == "lru"
        move = entries.move_to_end
        out: list[NodeId | None] = []
        append = out.append
        for key in keys:
            node = lookup(key)
            if node is not None and lru:
                move(key)
            append(node)
        misses = out.count(None)
        self.misses_total += misses
        self.hits_total += len(out) - misses
        return out

    def put(self, key: Key, node: NodeId) -> list[tuple[Key, NodeId]]:
        """Record ``key``'s new owner; return evicted (key, owner) pairs.

        The evicted owner returned is the owner *recorded in the table*
        (i.e. where the record currently lives), which is where the
        eviction migration must originate.
        """
        if key in self._entries:
            self._entries[key] = node
            self._entries.move_to_end(key)
        else:
            self._entries[key] = node
            self.inserts_total += 1
        evicted: list[tuple[Key, NodeId]] = []
        capacity = self.config.capacity
        if capacity:
            while len(self._entries) > capacity:
                old_key, old_node = self._entries.popitem(last=False)
                evicted.append((old_key, old_node))
                self.evictions_total += 1
        return evicted

    def remove(self, key: Key) -> None:
        """Drop ``key`` (it reverted to its static home)."""
        self._entries.pop(key, None)

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def snapshot(self) -> dict[Key, NodeId]:
        """A copy of the current entries, for audits and tests."""
        return dict(self._entries)

    def stats_snapshot(self) -> dict[str, int]:
        """Cumulative lookup/update counters plus the current size.

        The cluster samples this per delivered batch when tracing, which
        is what the Perfetto fusion-table counter track and the
        per-strategy hit-ratio metrics are built from.
        """
        return {
            "size": len(self._entries),
            "hits": self.hits_total,
            "misses": self.misses_total,
            "inserts": self.inserts_total,
            "evictions": self.evictions_total,
        }
