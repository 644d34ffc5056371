"""Multi-datacenter replication by determinism (Section 2.1, Figure 4).

Calvin-family systems replicate *input*, not effects: every data center
holds a full copy of the database and consumes the same totally ordered
transaction stream.  Because routing and execution are deterministic,
replicas converge to identical states without any cross-replica
agreement beyond the sequencing layer — this is what removes 2PC and
lets a replica take over instantly on failure.

:class:`ReplicatedDeployment` models that architecture: one primary
:class:`Cluster` plus N replica clusters, all built identically.  Each
sequenced batch is forwarded to every replica after a configurable WAN
delay; replicas deliver strictly in epoch order (a reorder buffer absorbs
link jitter), so they *lag* but never diverge.  The deployment exposes:

* ``submit`` — client entry point, always routed to the current primary;
* ``converged`` / ``divergence_report`` — consistency checks;
* ``fail_over`` — declare the primary dead mid-flight and promote a
  replica: the dead primary's forwarding tee is detached, the promoted
  cluster continues the epoch numbering where the dead primary's
  forwarded stream left off, keeps forwarding to the surviving replicas,
  and takes over ``submit``.  Batches already inside the WAN are *not*
  lost (they are scheduled deliveries and arrive in epoch order); what is
  lost is exactly the input that never left the dead primary — its
  sequencer backlog and batches still inside the ordering latency — and
  ``fail_over`` reports that window precisely as a
  :class:`FailoverReport` so clients know what to resubmit.

All replicas run in one simulation kernel-per-cluster; time is advanced
in lock-step by :meth:`run_until` so WAN lag is modelled faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Batch, Transaction, TxnId
from repro.engine.cluster import Cluster


@dataclass(frozen=True, slots=True)
class FailoverReport:
    """Exactly what a failover lost, and when.

    ``lost_txn_ids`` are the transactions that had been accepted by the
    dead primary but never forwarded to any replica: its sequencer
    backlog plus batches still inside the ordering latency.  They fall
    in the window ``(window_start_us, window_end_us]`` of primary time —
    bounded by the ordering latency plus one epoch, the paper's
    availability story (clients resubmit only this window; everything
    forwarded survives the WAN and replays deterministically).
    """

    promoted_index: int
    at_us: float
    lost_txn_ids: tuple[TxnId, ...]
    lost_batches: int
    window_start_us: float
    window_end_us: float

    @property
    def lost_count(self) -> int:
        return len(self.lost_txn_ids)


class ReplicatedDeployment:
    """A primary cluster plus deterministic replicas across the WAN."""

    def __init__(
        self,
        build_cluster: Callable[[], Cluster],
        num_replicas: int = 1,
        wan_delay_us: float = 50_000.0,
    ) -> None:
        if num_replicas < 1:
            raise ConfigurationError("need at least one replica")
        if wan_delay_us < 0:
            raise ConfigurationError("wan_delay_us must be >= 0")
        self.wan_delay_us = wan_delay_us
        self.primary = build_cluster()
        self.replicas = [build_cluster() for _ in range(num_replicas)]
        self.forwarded_batches = 0
        self.failovers: list[FailoverReport] = []
        self._detach_tee: Callable[[], None] = lambda: None
        self._install_forwarding(self.primary, ordered_local=False)

    # ------------------------------------------------------------------
    # Input replication
    # ------------------------------------------------------------------

    def _install_forwarding(
        self, source: Cluster, ordered_local: bool
    ) -> None:
        """Tee ``source``'s sequenced batches to the current replicas.

        The tee wraps the sequencer's delivery callback.  The original
        primary delivers locally in cut order (trivially epoch order);
        a *promoted* primary may still have older epochs in WAN flight,
        so its local deliveries go through the epoch reorder buffer
        (``ordered_local``).  The replica list is read at call time, so
        survivors keep receiving input after later failovers.
        """
        original_deliver = source.sequencer.deliver

        def forwarding_deliver(batch: Batch) -> None:
            if ordered_local:
                source.deliver_ordered(batch)
            else:
                original_deliver(batch)
            self.forwarded_batches += 1
            for replica in self.replicas:
                # Deliver the same ordered batch after the WAN delay; the
                # clone isolates replica-side mutation and the ordered
                # injection pins the global epoch order at the receiver.
                replica.kernel.call_later(
                    max(0.0, source.kernel.now + self.wan_delay_us
                        - replica.kernel.now),
                    replica.inject_batch_ordered,
                    batch.clone(),
                )

        source.sequencer.deliver = forwarding_deliver
        self._detach_tee = lambda: setattr(
            source.sequencer, "deliver", original_deliver
        )

    def submit(self, txn: Transaction, on_commit=None) -> None:
        """Client entry point: submit to the *current* primary.

        After a failover this transparently routes to the promoted
        cluster — callers keep submitting through the deployment.
        """
        self.primary.submit(txn, on_commit=on_commit)

    # ------------------------------------------------------------------
    # Time and consistency
    # ------------------------------------------------------------------

    def run_until(self, t_end: float, step_us: float = 10_000.0) -> None:
        """Advance every cluster's kernel to ``t_end`` in lock-step.

        Stepping keeps the WAN forwarding causal: a batch sequenced by
        the primary inside one step is delivered to replicas in a later
        step (the delay is at least one step when ``wan_delay_us`` > 0).
        """
        clusters = [self.primary, *self.replicas]
        now = max(c.kernel.now for c in clusters)
        while now < t_end:
            now = min(now + step_us, t_end)
            for cluster in clusters:
                cluster.kernel.run_until(now)

    def drain(self, max_time_us: float, step_us: float = 10_000.0) -> None:
        """Run until the primary and all replicas are quiescent.

        Quiescence requires epoch parity: a batch forwarded but still in
        WAN flight makes a replica look idle while work is pending, so
        replicas must have received every epoch the primary delivered.
        """
        clusters = [self.primary, *self.replicas]
        now = max(c.kernel.now for c in clusters)
        while now < max_time_us:
            idle = all(c.inflight == 0 for c in clusters)
            caught_up = all(
                r.epochs_delivered == self.primary.epochs_delivered
                for r in self.replicas
            )
            if idle and caught_up and self.primary.sequencer.backlog == 0:
                return
            now = min(now + step_us, max_time_us)
            for cluster in clusters:
                cluster.kernel.run_until(now)
        raise SimulationError("replicated deployment failed to drain")

    def converged(self) -> bool:
        """Whether every replica matches the primary bit for bit."""
        reference = self.primary.state_fingerprint()
        placement = self.primary.placement_snapshot()
        for replica in self.replicas:
            if replica.state_fingerprint() != reference:
                return False
            if replica.placement_snapshot() != placement:
                return False
        return True

    def divergence_report(self) -> list[str]:
        """Human-readable description of any replica divergence."""
        problems: list[str] = []
        reference = self.primary.state_fingerprint()
        for index, replica in enumerate(self.replicas):
            if replica.state_fingerprint() != reference:
                problems.append(
                    f"replica {index}: fingerprint mismatch "
                    f"({replica.state_fingerprint():#x} != {reference:#x})"
                )
            behind = self.primary.epochs_delivered - replica.epochs_delivered
            if behind:
                problems.append(f"replica {index}: {behind} epochs behind")
        return problems

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def fail_over(self, replica_index: int = 0) -> Cluster:
        """Kill the primary mid-flight; promote a replica.

        The promoted replica already holds every forwarded batch in its
        own pipeline (some possibly still crossing the WAN — those are
        scheduled deliveries and still arrive, in epoch order).  It needs
        *no* recovery protocol: determinism guarantees it reaches exactly
        the state the primary reached for the forwarded prefix.  The
        promoted cluster takes over ``submit`` and keeps forwarding to
        the surviving replicas, continuing the epoch numbering after the
        last epoch the dead primary forwarded.  The transactions that
        never left the dead primary — its backlog and batches inside the
        ordering latency — are lost, and reported in
        ``self.failovers[-1]`` so clients can resubmit them.

        Returns the promoted cluster (also reachable as ``.primary``).
        """
        if not 0 <= replica_index < len(self.replicas):
            raise ConfigurationError(f"no replica {replica_index}")
        dead = self.primary
        promoted = self.replicas.pop(replica_index)

        # Detach the dead primary's forwarding tee: a dead sequencer must
        # not keep teeing input at survivors (it is dead, and the tee
        # holds references that would resurrect it).
        self._detach_tee()

        # The exact lost window: accepted input that never reached the
        # forwarding tee.
        lost: list[Transaction] = []
        lost_batches = dead.sequencer.sequenced_in_flight()
        for _cut_time, batch in lost_batches:
            lost.extend(batch.txns)
        priority, pending = dead.sequencer.backlog_snapshot()
        lost.extend(priority)
        lost.extend(pending)
        window_start = (
            min((t.arrival_time for t in lost), default=dead.kernel.now)
        )
        report = FailoverReport(
            promoted_index=replica_index,
            at_us=dead.kernel.now,
            lost_txn_ids=tuple(t.txn_id for t in lost),
            lost_batches=len(lost_batches),
            window_start_us=window_start,
            window_end_us=dead.kernel.now,
        )
        self.failovers.append(report)

        # Epoch continuity: the promoted sequencer reuses the lost
        # (never-forwarded) epoch numbers, continuing right after the
        # last epoch the dead primary delivered to its tee.  This keeps
        # every survivor's epoch stream gapless, which the reorder
        # buffers rely on.
        promoted.sequencer.restore_epoch(dead.epochs_delivered)

        self.primary = promoted
        self._install_forwarding(promoted, ordered_local=True)
        return promoted
