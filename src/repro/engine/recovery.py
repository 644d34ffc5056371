"""Failure recovery by deterministic replay (Section 4.3) and replica
takeover (Section 2.1, Figure 4).

A failed node (or a whole fresh replica) recovers by replaying the
command log: the routing, data fusion, and cold migrations are all
deterministic functions of the totally ordered input, so replay
reconstructs the exact pre-failure state.  (The paper restores a
checkpoint first to shorten the replay; replaying the whole log reaches
the identical state, and no workload here measures replay length.)
:func:`replay_command_log` performs that replay on a freshly built
cluster and returns it.

For *mid-flight* crashes (the fault-injection subsystem,
:mod:`repro.faults`), :class:`DurableState` captures everything that
survives an execution-tier crash — the command log, batches sequenced
but still inside the ordering latency, and the sequencer backlog (both
live in the replicated ordering tier in the real system, so a crash of
the execution nodes cannot lose them).  A survivor comes from one of two
places, and both end in the same hand-off of the total order:

* :func:`recover_from_crash` rebuilds a cluster by replaying the log;
* :func:`promote_replica` promotes a WAN replica that has been consuming
  the primary's delivered batches :data:`WAN_DELAY_US` behind it — the
  same input, so it needs no recovery protocol, only to finish the
  batches still crossing the WAN.

Re-delivery of the in-flight batches and re-submission of the backlog
are left to the caller, because only the caller knows how resumed time
should line up with the original epoch grid (see ``repro.faults.chaos``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Batch, Transaction, TxnId
from repro.engine.cluster import Cluster
from repro.storage.wal import CommandLog


def replay_command_log(
    build_cluster: Callable[[], Cluster],
    log: CommandLog,
    max_time_us: float = 3_600_000_000.0,
) -> Cluster:
    """Rebuild state by replaying ``log`` on a freshly built cluster.

    ``build_cluster`` must construct the cluster exactly as the original
    was built at time zero: same config, same router construction, same
    initial partitioner, same loaded data.  Batches are injected one per
    sequencer epoch, preserving the total order; the function runs the
    cluster until quiescent and returns it.
    """
    cluster = build_cluster()
    if cluster.inflight:
        raise SimulationError("replay target must start quiescent")

    spacing = cluster.config.engine.epoch_us
    for index, batch in enumerate(log):
        cluster.kernel.call_later(
            spacing * (index + 1), cluster.inject_batch, batch
        )
    cluster.run_until_quiescent(max_time_us)
    if cluster.inflight:
        raise SimulationError("replay did not drain; raise max_time_us")
    return cluster


@dataclass(slots=True)
class DurableState:
    """What survives an execution-tier crash (Section 4.3 + Figure 4).

    The command log is durable storage; the sequenced
    in-flight batches and the accepted backlog live in the replicated
    ordering tier (a Zab quorum acknowledged them), so a crash of the
    execution nodes loses *none* of the total order — only volatile
    execution state, which deterministic replay reconstructs.
    """

    crashed_at_us: float
    command_log: CommandLog
    in_flight: list[tuple[float, Batch]] = field(default_factory=list)
    """``(cut_time, batch)`` sequenced but undelivered at the crash."""

    backlog_priority: list[Transaction] = field(default_factory=list)
    backlog_pending: list[Transaction] = field(default_factory=list)
    last_assigned_epoch: int = 0
    next_txn_id: int = 0

    @staticmethod
    def capture(cluster: Cluster) -> "DurableState":
        """Snapshot the durable tier of a (possibly mid-batch) cluster."""
        if cluster.command_log is None:
            raise ConfigurationError(
                "crash recovery requires keep_command_log=True"
            )
        log_copy = CommandLog()
        for batch in cluster.command_log:
            log_copy.append(batch)
        priority, pending = cluster.sequencer.backlog_snapshot()
        return DurableState(
            crashed_at_us=cluster.kernel.now,
            command_log=log_copy,
            in_flight=cluster.sequencer.sequenced_in_flight(),
            backlog_priority=priority,
            backlog_pending=pending,
            last_assigned_epoch=cluster.sequencer.last_assigned_epoch,
            next_txn_id=cluster._next_txn_id,
        )

    def sequenced_txn_ids(self) -> set[TxnId]:
        """Every transaction id holding a total-order position."""
        ids: set[TxnId] = set()
        for batch in self.command_log:
            ids.update(batch.ids())
        for _cut, batch in self.in_flight:
            ids.update(batch.ids())
        return ids

    def last_logged_epoch(self) -> int:
        """Epoch of the last batch in the command log (0 if empty)."""
        last = 0
        for batch in self.command_log:
            last = batch.epoch
        return last


#: One-way delay of the WAN link feeding a replica site its ordered input.
WAN_DELAY_US = 50_000.0


def recover_from_crash(
    build_cluster: Callable[[], Cluster],
    durable: DurableState,
    max_time_us: float = 3_600_000_000.0,
) -> Cluster:
    """Rebuild a crashed cluster's state from its durable tier.

    Replays the command log, then hands the total order over (see
    :func:`_resume_order`).  The caller finishes the hand-off by
    re-delivering ``durable.in_flight`` through
    :meth:`Cluster.inject_batch_ordered` and re-submitting the backlog —
    both at times of its choosing (``repro.faults.chaos`` aligns them
    with the original epoch grid so recovery is exactly input-preserving).
    """
    cluster = replay_command_log(
        build_cluster, durable.command_log, max_time_us=max_time_us
    )
    _resume_order(cluster, durable)
    return cluster


def promote_replica(
    replica: Cluster,
    durable: DurableState,
    max_time_us: float = 3_600_000_000.0,
) -> Cluster:
    """Promote a replica fed the dead primary's delivered batches.

    Every batch the primary delivered before ``durable.crashed_at_us``
    reaches the replica by ``crashed_at_us + WAN_DELAY_US``; running past
    that instant to quiescence leaves the replica holding exactly the
    command log's state.  The hand-off and the caller's part are those of
    :func:`recover_from_crash`.  A replica that lost a forwarded batch
    does not drain; the caller's checks report what is stuck.
    """
    replica.run_until(durable.crashed_at_us + WAN_DELAY_US)
    replica.run_until_quiescent(max_time_us)
    _resume_order(replica, durable)
    return replica


def _resume_order(cluster: Cluster, durable: DurableState) -> None:
    """Continue the dead cluster's total order on ``cluster``: the
    sequencer's epoch numbering, the reorder buffer's anchor after the
    last logged batch, and the transaction-id counter."""
    cluster.sequencer.restore_epoch(durable.last_assigned_epoch)
    cluster.set_next_expected_epoch(durable.last_logged_epoch() + 1)
    cluster._next_txn_id = max(cluster._next_txn_id, durable.next_txn_id)
