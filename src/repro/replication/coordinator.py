"""Cluster-side wiring for the replication layer.

Routers are pure planning functions; the :class:`ReplicationCoordinator`
is the strategy ``attach`` hook that binds a :class:`ReplicationRouter`
into a live cluster:

* gives the router the cluster's tracer (provision / install events
  land in the same trace as everything else);
* owns a :class:`~repro.engine.migration.MigrationController` so
  replica installs run through the same generation-tagged,
  pausable, chaos-safe session machinery as ownership migrations;
* marks holders **valid at chunk commit** via the controller's
  ``on_chunk`` callback — the directory install carries the chunk's
  *routing* epoch (recorded by the router at interception), so validity
  is conservative under pipelined batches.

Provision cycles are deferred one kernel step (``call_soon``): the
router plans them mid-``route_batch``, and starting a migration session
submits transactions to the sequencer — re-entering it from inside
batch routing is not allowed.

**Fenced retirement.**  Retiring a holder removes it from the directory
at routing time, but the side-store bytes cannot be dropped there: the
scheduler pipelines, so a replica read routed in an *earlier* epoch may
not have executed yet, and the executor reads the side-store only at
serve time.  The router therefore hands each retirement a fence — the
count of transactions routed before the retiring batch.  Dispatch
assigns contiguous sequence numbers in routing order, so once every
runtime with ``seq <= fence`` has finished (tracked by a commit-listener
watermark over the finished-seq heap), no in-flight read can still
touch the copy and the drop is safe.  Two deterministic guards skip the
drop when a *refresh* install raced the retirement: a pending install
chunk for the same ``(range, holder)``, or the pair being back in the
directory by the time the fence clears.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.common.types import NodeId
from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.engine.migration import MigrationController
from repro.replication.router import ReplicationRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cluster import Cluster
    from repro.engine.executor import TxnRuntime

__all__ = ["ReplicationCoordinator"]


class ReplicationCoordinator:
    """Binds a ReplicationRouter to a cluster's trace/metrics/sessions."""

    def __init__(
        self, cluster: "Cluster", router: ReplicationRouter
    ) -> None:
        if cluster.router is not router:
            raise ValueError(
                "coordinator must wrap the cluster's own router"
            )
        self.cluster = cluster
        self.router = router
        self.controller = MigrationController(cluster)
        router.tracer = cluster.tracer
        router.on_provision = self._on_provision
        router.on_retire = self._on_retire
        router.controller_busy = self._busy
        registry = cluster.metrics.registry
        self._cycles = registry.counter("replica_provision_cycles_total")
        self._chunks = registry.counter("replica_install_chunks_total")
        self._range_installs = registry.counter(
            "replica_range_installs_total"
        )
        self._retires = registry.counter("replica_retire_ranges_total")
        self._retired_records = registry.counter(
            "replica_retired_records_total"
        )
        #: (range_id, holder) -> in-flight install chunks; a pending
        #: refresh means a fenced drop must stand down (its copy will be
        #: rewritten whole, and may already be mid-write).
        self._pending_installs: dict[tuple[int, NodeId], int] = {}
        #: min-heap of (fence, range_id, node) drops awaiting drain.
        self._pending_drops: list[tuple[int, int, NodeId]] = []
        #: contiguous-finished watermark over dispatch seqs: every
        #: runtime with seq <= watermark has finished.
        self._seq_watermark = 0
        self._finished_seqs: list[int] = []
        if router.replication.side_store_budget is not None:
            # The per-commit listener is only worth paying for when a
            # budget can actually schedule fenced drops.
            cluster.commit_listeners.append(self._note_finished)

    # ------------------------------------------------------------------
    # Router callbacks
    # ------------------------------------------------------------------

    def _busy(self) -> bool:
        return self.controller.active

    def _on_provision(
        self, chunks: list[ChunkMigration], epoch: int
    ) -> None:
        self._cycles.inc()
        self._chunks.inc(len(chunks))
        plan = ColdMigrationPlan(chunks=tuple(chunks))
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.replication(
                "provision", epoch=epoch, chunks=len(chunks)
            )
        # route_batch is still on the stack: defer the session start so
        # chunk submission never re-enters the sequencer mid-routing.
        self.cluster.kernel.call_soon(self._start_session, plan)

    def _start_session(self, plan: ColdMigrationPlan) -> None:
        if self.controller.active:
            return  # a prior cycle is still draining; skip this one
        range_records = self.router.directory.range_records
        pending = self._pending_installs
        for chunk in plan.chunks:
            pair = (chunk.keys[0] // range_records, chunk.dst)
            pending[pair] = pending.get(pair, 0) + 1
        self.controller.start(plan, on_chunk=self._on_chunk)

    def _on_chunk(
        self, chunk: ChunkMigration, runtime: "TxnRuntime"
    ) -> None:
        """Chunk commit: the holder's copy is physically installed —
        stamp directory validity with the chunk's routing epoch."""
        router = self.router
        range_id = chunk.keys[0] // router.directory.range_records
        pair = (range_id, chunk.dst)
        remaining = self._pending_installs.get(pair, 0)
        if remaining <= 1:
            self._pending_installs.pop(pair, None)
        else:
            self._pending_installs[pair] = remaining - 1
        epoch = router._install_epochs.pop(
            runtime.plan.txn.txn_id, None
        )
        if epoch is None:
            return  # orphaned pre-crash chunk replayed without a route
        router.directory.install(range_id, chunk.dst, epoch)
        self._range_installs.inc()
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.replication(
                "install",
                range_id=range_id,
                node=chunk.dst,
                epoch=epoch,
                keys=len(chunk.keys),
            )

    # ------------------------------------------------------------------
    # Budget retirement (fenced physical drops)
    # ------------------------------------------------------------------

    def _on_retire(self, range_id: int, node: NodeId, fence: int) -> None:
        """Directory retirement happened mid-routing; schedule the
        side-store drop for when the fence drains."""
        self._retires.inc()
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.replication(
                "retire", range_id=range_id, node=node, fence=fence
            )
        if fence <= self._seq_watermark:
            self._drop(range_id, node)
        else:
            heapq.heappush(self._pending_drops, (fence, range_id, node))

    def _note_finished(self, runtime: "TxnRuntime") -> None:
        """Commit listener: advance the contiguous-finished watermark.

        Dispatch seqs are contiguous from 1, so the watermark is the
        largest ``w`` with every seq <= w finished; drops whose fence it
        passes are safe to execute.
        """
        heap = self._finished_seqs
        heapq.heappush(heap, runtime.seq)
        watermark = self._seq_watermark
        while heap and heap[0] == watermark + 1:
            heapq.heappop(heap)
            watermark += 1
        self._seq_watermark = watermark
        drops = self._pending_drops
        while drops and drops[0][0] <= watermark:
            _fence, range_id, node = heapq.heappop(drops)
            self._drop(range_id, node)

    def _drop(self, range_id: int, node: NodeId) -> None:
        """Physically free a retired range's side-store records.

        Stands down if a refresh install raced the retirement: either
        an install chunk for the pair is still in flight (its copy may
        be mid-write and must survive), or the pair is back in the
        directory (the refresh already committed and re-validated it).
        """
        if self._pending_installs.get((range_id, node)):
            return
        router = self.router
        if router.directory.is_holder(range_id, node):
            return
        replication = router.replication
        lo, hi = router.directory.span_of(range_id)
        lo = max(lo, replication.key_lo)
        hi = min(hi, replication.key_hi)
        if lo >= hi:
            return
        freed = self.cluster.nodes[node].replicas.drop(range(lo, hi))
        self._retired_records.inc(freed)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.replication(
                "retire_drop", range_id=range_id, node=node, records=freed
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def replication_bytes(self) -> int:
        """Wire bytes spent installing replicas (session accounting)."""
        return self.controller.bytes_on_wire

    def replication_records(self) -> int:
        return self.controller.records_moved
