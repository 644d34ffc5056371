"""The fault injector: turns a :class:`FaultPlan` into kernel events.

Windowed faults (partitions, loss, jitter, stragglers) become pairs of
scheduled activate/deactivate callbacks on the cluster's kernel:
partitions block the severed directed links in
:class:`~repro.sim.network.Network`, loss and jitter install matching
rules, stragglers dial a node's :class:`~repro.engine.node.WorkerPool`
slowdown.  Crash faults are *not* handled here — the chaos harness
(:mod:`repro.faults.chaos`) segments the run at the crash instant and
drives recovery, because a crash replaces the whole cluster object.

The injector speaks **virtual time**: the timeline of the original,
fault-free schedule.  Before any crash, virtual time equals kernel time.
After a crash, the chaos harness resumes the workload shifted by an
offset, and re-installs the injector with ``install(from_virtual_us=T,
offset_us=O)`` — windows that end before the crash are skipped, windows
that straddle it re-activate immediately, and all kernel times are the
virtual times plus ``O``.
"""

from __future__ import annotations

from repro.common.rng import DeterministicRNG
from repro.engine.cluster import Cluster
from repro.faults.plan import (
    FaultPlan,
    ForecastFault,
    JitterFault,
    LinkLossFault,
    PartitionFault,
    ReplicaOutageFault,
    ScheduledFault,
    StragglerFault,
)


class FaultInjector:
    """Schedules one plan's windowed faults onto one cluster."""

    def __init__(
        self, cluster: Cluster, plan: FaultPlan, rng: DeterministicRNG
    ) -> None:
        plan.validate(cluster.config.num_nodes)
        self.cluster = cluster
        self.plan = plan
        self.rng = rng
        self.activations = 0
        self.deactivations = 0
        self._rule_ids: dict[int, int] = {}

    def install(
        self, from_virtual_us: float = 0.0, offset_us: float = 0.0
    ) -> None:
        """Schedule every windowed fault overlapping ``[from_virtual_us, ∞)``.

        Kernel time for virtual time ``v`` is ``v + offset_us``; windows
        already open at ``from_virtual_us`` activate as soon as possible
        (``Kernel.call_at`` clamps past times to "now").
        """
        network = self.cluster.network
        if network.fault_rng is None:
            # One fork per install keeps post-crash draws independent of
            # how many draws the pre-crash segment consumed.
            network.fault_rng = self.rng.fork("network", from_virtual_us)
        kernel = self.cluster.kernel
        for event in self.plan.scheduled():
            end_virtual = event.start_us + event.duration_us
            if end_virtual <= from_virtual_us:
                continue
            start_kernel = (
                max(event.start_us, from_virtual_us) + offset_us
            )
            kernel.call_at(start_kernel, self._activate, event)
            kernel.call_at(end_virtual + offset_us, self._deactivate, event)

    # ------------------------------------------------------------------

    def _activate(self, event: ScheduledFault) -> None:
        self.activations += 1
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.fault("fault_on", event)
        network = self.cluster.network
        if isinstance(event, PartitionFault):
            network.block_links(event.severed_links())
        elif isinstance(event, LinkLossFault):
            rule_id = network.add_loss_rule(
                event.probability, event.src, event.dst
            )
            self._rule_ids[id(event)] = rule_id
        elif isinstance(event, JitterFault):
            rule_id = network.add_jitter_rule(
                event.max_extra_us, event.src, event.dst
            )
            self._rule_ids[id(event)] = rule_id
        elif isinstance(event, StragglerFault):
            self.cluster.nodes[event.node].workers.set_slowdown(
                event.slowdown
            )
        elif isinstance(event, ForecastFault):
            # Routed to the forecaster wrapper when the router has one;
            # clusters without a forecast router ignore the window (the
            # fault_on/fault_off trace still records it).
            sink = getattr(self.cluster.router, "forecast_fault_sink", None)
            if sink is not None:
                sink.activate(event)
        elif isinstance(event, ReplicaOutageFault):
            sink = getattr(self.cluster.router, "replica_fault_sink", None)
            if sink is not None:
                sink.activate(event)

    def _deactivate(self, event: ScheduledFault) -> None:
        self.deactivations += 1
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.fault("fault_off", event)
        network = self.cluster.network
        if isinstance(event, PartitionFault):
            network.unblock_links(event.severed_links())
        elif isinstance(event, (LinkLossFault, JitterFault)):
            rule_id = self._rule_ids.pop(id(event), None)
            if rule_id is not None:
                network.remove_rule(rule_id)
        elif isinstance(event, StragglerFault):
            self.cluster.nodes[event.node].workers.set_slowdown(1.0)
        elif isinstance(event, ForecastFault):
            sink = getattr(self.cluster.router, "forecast_fault_sink", None)
            if sink is not None:
                sink.deactivate(event)
        elif isinstance(event, ReplicaOutageFault):
            sink = getattr(self.cluster.router, "replica_fault_sink", None)
            if sink is not None:
                sink.deactivate(event)
