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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.engine.migration import MigrationController
from repro.replication.router import ReplicationRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cluster import Cluster
    from repro.engine.executor import TxnRuntime

__all__ = ["ReplicationCoordinator"]


class ReplicationCoordinator:
    """Binds a ReplicationRouter to a cluster's trace and sessions."""

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
        router.controller_busy = self._busy

    # ------------------------------------------------------------------
    # Router callbacks
    # ------------------------------------------------------------------

    def _busy(self) -> bool:
        return self.controller.active

    def _on_provision(
        self, chunks: list[ChunkMigration], epoch: int
    ) -> None:
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
        self.controller.start(plan, on_chunk=self._on_chunk)

    def _on_chunk(
        self, chunk: ChunkMigration, runtime: "TxnRuntime"
    ) -> None:
        """Chunk commit: the holder's copy is physically installed —
        stamp directory validity with the chunk's routing epoch."""
        router = self.router
        range_id = chunk.keys[0] // router.directory.range_records
        epoch = router._install_epochs.pop(
            runtime.plan.txn.txn_id, None
        )
        if epoch is None:
            return  # orphaned pre-crash chunk replayed without a route
        router.directory.install(range_id, chunk.dst, epoch)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.replication(
                "install",
                range_id=range_id,
                node=chunk.dst,
                epoch=epoch,
                keys=len(chunk.keys),
            )
