"""Adaptive read replication over prescient routing.

:class:`ReplicationRouter` wraps a :class:`PrescientRouter` and adds a
replica layer driven by the same forecast window:

* **Invalidation first** — every write in the sequenced batch
  invalidates its key range in the :class:`ReplicaDirectory` *before*
  any routing decision for the batch.  Because installs only become
  valid at chunk commit and validity demands a strictly newer install
  epoch, no write is ever sequenced between a valid replica's install
  and a read routed to it — replica serves take **no locks** and still
  return the serializable value.
* **Provisioning** — every ``provision_interval`` epochs the
  :class:`ReplicaProvisioner` ranks forecast demand into full-range
  copy chunks, handed to the coordinator (which runs them through the
  migration session machinery; the ``controller_busy`` callback skips a
  cycle while a previous one is still installing).  Ranges fan out to
  ``fanout`` holders (at least two in clone mode).  Holders are never
  retired: an invalidated copy stays in the side store until a refresh
  install rewrites it.
* **Install interception** — copy-chunk MIGRATION transactions are
  planned here via :func:`build_replica_install_plan` (primary
  ownership untouched); everything else routes through the inner
  prescient router on a sub-batch, and the install plans are appended
  so the routing plan stays a permutation of the input.
* **Read rewriting** — eligible single-master user plans get their
  remote read-only keys rerouted to valid replica holders: a
  master-held replica localizes the read outright; otherwise the
  least-loaded holder serves it lock-free, ties broken by
  ``txn_id % len(tied)`` over the sorted holder list.  In *clone* mode
  (request cloning, arXiv 2002.04416) every other valid holder serves
  the key too and the master proceeds on the first arrival, trading
  duplicate serve work for tail latency.

Every choice above is a pure function of the sequenced batch stream,
the seeded forecaster, and the directory state those same inputs built
— dual replays agree bit for bit, and with replication disabled the
wrapper routes byte-identically to plain Hermes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CostModel, RoutingConfig
from repro.common.types import Batch, Key, NodeId, Transaction, TxnKind
from repro.core.plan import RoutingPlan, TxnPlan
from repro.core.prescient import PrescientRouter
from repro.core.router import (
    ClusterView,
    Router,
    build_replica_install_plan,
)
from repro.forecast.forecasters import Forecaster
from repro.replication.directory import ReplicaDirectory
from repro.replication.provision import ReplicaProvisioner

__all__ = ["ReplicationConfig", "ReplicationRouter"]


@dataclass(frozen=True, slots=True)
class ReplicationConfig:
    """Knobs for the replica-provision layer.

    ``key_lo``/``key_hi`` bound the replicable integer keyspace — the
    router cannot infer it from batches (full-range copies must cover
    keys the current window never touched).

    ``fanout`` is how many holders each provisioned range fans out to;
    clone mode raises the effective fanout to at least two, because a
    single holder leaves request cloning with nobody to clone to.
    """

    key_lo: int
    key_hi: int
    range_records: int = 64
    provision_interval: int = 4
    clone: bool = False
    fanout: int = 1

    def __post_init__(self) -> None:
        if self.key_hi <= self.key_lo:
            raise ValueError("key_hi must be > key_lo")
        if self.range_records < 1:
            raise ValueError("range_records must be >= 1")
        if self.provision_interval < 1:
            raise ValueError("provision_interval must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")


class _OutageSink:
    """Fault-injection sink toggling directory outages.

    Mirrors the forecaster sink protocol the injector expects; windows
    flip state between batches, and routing reads it only at plan time,
    so outage effects land on sequenced epoch boundaries.
    """

    __slots__ = ("directory", "activations", "deactivations")

    def __init__(self, directory: ReplicaDirectory) -> None:
        self.directory = directory
        self.activations = 0
        self.deactivations = 0

    def activate(self, event) -> None:
        self.directory.set_outage(event.node)
        self.activations += 1

    def deactivate(self, event) -> None:
        self.directory.clear_outage(event.node)
        self.deactivations += 1


class ReplicationRouter(Router):
    """Prescient routing plus forecast-provisioned read replicas."""

    name = "hermes-replica"

    def __init__(
        self,
        forecaster: Forecaster,
        replication: ReplicationConfig,
        config: RoutingConfig | None = None,
    ) -> None:
        self._inner = PrescientRouter(config)
        self.forecaster = forecaster
        self.replication = replication
        self.directory = ReplicaDirectory(replication.range_records)
        self.provisioner = ReplicaProvisioner(
            range_records=replication.range_records,
            key_lo=replication.key_lo,
            key_hi=replication.key_hi,
            # One holder per range makes request cloning vacuous: clone
            # mode needs at least a second holder to clone reads to.
            fanout=(
                max(replication.fanout, 2)
                if replication.clone
                else replication.fanout
            ),
        )
        #: Fault sinks: ForecastFault windows reach a FaultyForecaster,
        #: ReplicaOutageFault windows reach the directory overlay.
        self.forecast_fault_sink = (
            forecaster if hasattr(forecaster, "activate") else None
        )
        self.replica_fault_sink = _OutageSink(self.directory)
        #: Bound by the ReplicationCoordinator (strategy attach hook).
        self.tracer = None
        self.on_provision = None
        self.controller_busy = None
        #: txn_id -> routing epoch of each intercepted install chunk;
        #: the coordinator pops it at chunk commit to stamp validity.
        self._install_epochs: dict[int, int] = {}
        #: cumulative keys assigned per holder (load-balanced serves).
        self._holder_load: dict[NodeId, int] = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.epochs_total = 0
        self.rewritten_txns = 0
        self.replica_keys = 0
        self.replica_local_keys = 0
        self.cloned_keys = 0
        self.provision_cycles = 0
        self.provision_chunks = 0

    # ------------------------------------------------------------------
    # Router interface
    # ------------------------------------------------------------------

    def routing_cost_us(self, batch_size: int, costs: CostModel) -> float:
        return self._inner.routing_cost_us(batch_size, costs)

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        directory = self.directory
        epoch = batch.epoch
        self.epochs_total += 1

        # 1) Invalidate written ranges *before* any routing decision of
        #    this batch — including the writers' own batch-mates.
        range_records = directory.range_records
        for txn in batch:
            write_set = txn.write_set
            if not write_set:
                continue
            for key in txn.ordered_keys:
                if key in write_set and type(key) is int:
                    directory.invalidate(key // range_records, epoch)

        # 2) Forecast-driven provisioning on the configured cadence.
        predicted = self.forecaster.predict(batch)
        if (
            epoch % self.replication.provision_interval == 0
            and self.on_provision is not None
        ):
            busy = self.controller_busy
            if busy is None or not busy():
                chunks = self.provisioner.plan(predicted, view, directory)
                if chunks:
                    self.provision_cycles += 1
                    self.provision_chunks += len(chunks)
                    self.on_provision(chunks, epoch)
        self.forecaster.observe(batch)

        # 3) Intercept copy chunks; everything else is plain Hermes.
        installs: list[Transaction] = []
        rest: list[Transaction] = []
        for txn in batch:
            if txn.kind is TxnKind.MIGRATION and getattr(
                txn.payload, "copy", False
            ):
                installs.append(txn)
            else:
                rest.append(txn)
        if installs:
            plan = self._inner.route_batch(
                Batch(epoch=epoch, txns=rest), view
            )
            for txn in installs:
                self._install_epochs[txn.txn_id] = epoch
                plan.plans.append(build_replica_install_plan(txn, view))
        else:
            plan = self._inner.route_batch(batch, view)

        # 4) Reroute eligible remote reads to valid replica holders.
        plans = plan.plans
        for index, txn_plan in enumerate(plans):
            rewritten = self._rewrite_plan(txn_plan, view)
            if rewritten is not None:
                plans[index] = rewritten
        return plan

    def stats_snapshot(self) -> dict[str, float]:
        """Merged planning + replication counters (per-batch samples)."""
        stats: dict[str, float] = dict(self._inner.stats_snapshot())
        stats["epochs"] = self.epochs_total
        stats["replica_rewritten_txns"] = self.rewritten_txns
        stats["replica_keys"] = self.replica_keys
        stats["replica_local_keys"] = self.replica_local_keys
        stats["cloned_keys"] = self.cloned_keys
        stats["replica_provision_cycles"] = self.provision_cycles
        stats["replica_provision_chunks"] = self.provision_chunks
        stats["replica_outages_active"] = len(self.directory.outages)
        stats.update(self.directory.stats_snapshot())
        return stats

    def reset_stats(self) -> None:
        """Zero planning counters (fresh run over a reused instance)."""
        self._inner.reset_stats()
        self._reset_counters()
        self._holder_load.clear()

    # ------------------------------------------------------------------
    # Read rewriting
    # ------------------------------------------------------------------

    def _rewrite_plan(
        self, txn_plan: TxnPlan, view: ClusterView
    ) -> TxnPlan | None:
        """Reroute a plan's remote read-only keys onto replica holders.

        Returns the rewritten plan, or ``None`` when nothing applies.
        Keys that ride migrations/writebacks/evictions keep their
        original serve location (their plans encode physical movement
        the rewrite must not disturb), as do written keys and keys the
        master already serves locally.
        """
        txn = txn_plan.txn
        if txn.is_system() or txn.validator is not None:
            return None
        if len(txn_plan.masters) != 1:
            return None
        master = txn_plan.masters[0]
        reads_from = txn_plan.reads_from
        if all(loc == master for loc in reads_from):
            return None  # fully local already

        skip: set[Key] = set(txn.write_set)
        for move in txn_plan.migrations:
            skip.add(move.key)
        for move in txn_plan.writebacks:
            skip.add(move.key)
        for move in txn_plan.evictions:
            skip.add(move.key)

        served_at: dict[Key, NodeId] = {}
        for loc, keys in reads_from.items():
            if loc == master:
                continue
            for key in keys:
                served_at[key] = loc

        directory = self.directory
        range_records = directory.range_records
        active = view.active_nodes
        clone_mode = self.replication.clone
        load = self._holder_load
        reassign: dict[Key, NodeId] = {}
        clones: dict[NodeId, set[Key]] = {}
        for key in txn.ordered_keys:
            if key in skip or type(key) is not int:
                continue
            loc = served_at.get(key)
            if loc is None:
                continue  # served at the master: local already
            holders = directory.valid_holders(
                key // range_records, active
            )
            if not holders:
                continue
            if master in holders:
                winner = master
            else:
                floor = min(load.get(node, 0) for node in holders)
                tied = [
                    node for node in holders if load.get(node, 0) == floor
                ]
                winner = tied[txn.txn_id % len(tied)]
                if winner == loc:
                    # The primary serve location itself: a side-store
                    # read there buys nothing over the primary read.
                    continue
            reassign[key] = winner
            load[winner] = load.get(winner, 0) + 1
            if clone_mode:
                # Localized reads (winner == master) are cloned too:
                # data-ready fires on first coverage, so a remote clone
                # can still beat the master's own backed-up store queue.
                for holder in holders:
                    if holder != winner and holder != master:
                        clones.setdefault(holder, set()).add(key)
        if not reassign:
            return None

        new_reads: dict[NodeId, set[Key]] = {
            loc: set(keys) for loc, keys in reads_from.items()
        }
        replica: dict[NodeId, set[Key]] = {}
        for key, winner in reassign.items():
            new_reads[served_at[key]].discard(key)
            new_reads.setdefault(winner, set()).add(key)
            replica.setdefault(winner, set()).add(key)
            self.replica_keys += 1
            if winner == master:
                self.replica_local_keys += 1
        self.rewritten_txns += 1
        self.cloned_keys += sum(len(keys) for keys in clones.values())

        return TxnPlan(
            txn=txn,
            masters=txn_plan.masters,
            reads_from={
                loc: frozenset(keys)
                for loc, keys in new_reads.items()
                if keys
            },
            writes_at=txn_plan.writes_at,
            migrations=txn_plan.migrations,
            writebacks=txn_plan.writebacks,
            evictions=txn_plan.evictions,
            replica_reads={
                loc: frozenset(keys) for loc, keys in replica.items()
            },
            cloned_reads=(
                {loc: frozenset(keys) for loc, keys in clones.items()}
                if clones
                else None
            ),
        )
