"""Clay (look-back adaptive re-partitioning) [Serafini et al., VLDB'16].

Clay monitors the workload, and when a node exceeds its load target it
builds *clumps* — groups of co-accessed data — from the observed access
graph and migrates them to colder nodes as Squall-style chunked
migration transactions.  As in the paper's own implementation note
(footnote 4), our clumps are key *ranges* rather than individual keys:
generating key-grained clumps from the trace is prohibitively slow, and
ranges are what their experiments used for YCSB-style keyspaces.

The two behavioural properties the paper's comparison hinges on are
reproduced exactly:

* **Reaction delay** — Clay only sees the past: it accumulates a
  monitoring window (default 30 simulated seconds, as in Section 5.4)
  before it can produce a plan, so it chases episodic workload shifts.
* **Dedicated migration phase** — the plan is executed by chunked
  migration transactions that exclusively lock whatever they move,
  including currently hot records, dropping foreground throughput while
  the plan drains.

Routing is vanilla Calvin multi-master over the (re-partitioned) static
map; :class:`ClayRouter` additionally records the access statistics the
monitor consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.types import Batch, Key, NodeId
from repro.core.plan import RoutingPlan
from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.baselines.calvin import CalvinRouter
from repro.core.router import ClusterView
from repro.engine.migration import MigrationController

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.cluster import Cluster


class ClayRouter(CalvinRouter):
    """Calvin routing plus the access accounting Clay's monitor needs."""

    name = "clay"

    def __init__(self, clump_records: int) -> None:
        if clump_records < 1:
            raise ConfigurationError("clump_records must be >= 1")
        self.clump_records = clump_records
        self.window_node_load: dict[NodeId, float] = {}
        self.window_clump_heat: dict[int, float] = {}

    def clump_of(self, key: Key) -> int:
        """The clump (range id) a key belongs to; integer keys only."""
        return int(key) // self.clump_records  # type: ignore[arg-type]

    def clump_keys(self, clump: int) -> tuple[Key, ...]:
        lo = clump * self.clump_records
        return tuple(range(lo, lo + self.clump_records))

    def clump_probe_key(self, clump: int) -> Key:
        """A representative key used to look up the clump's current home."""
        return clump * self.clump_records

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        plan = super().route_batch(batch, view)
        for txn_plan in plan:
            if txn_plan.txn.is_system():
                continue
            share = 1.0 / len(txn_plan.masters)
            for master in txn_plan.masters:
                self.window_node_load[master] = (
                    self.window_node_load.get(master, 0.0) + share
                )
            for key in txn_plan.txn.ordered_keys:
                clump = self.clump_of(key)
                self.window_clump_heat[clump] = (
                    self.window_clump_heat.get(clump, 0.0) + 1.0
                )
        return plan

    def reset_window(self) -> None:
        self.window_node_load = {}
        self.window_clump_heat = {}


#: A node is overloaded once its windowed load exceeds the mean by this
#: fraction; only then does the monitor build a plan.
IMBALANCE_TOLERANCE = 0.25

#: The hottest clumps one plan considers moving off the overloaded node.
MAX_CLUMPS_PER_PLAN = 64


class ClayController:
    """Clay's monitor/planner loop; its plans run as Squall-style chunks
    on its own :class:`~repro.engine.migration.MigrationController`."""

    def __init__(
        self,
        cluster: "Cluster",
        router: ClayRouter,
        monitor_interval_us: float = 30_000_000.0,
    ) -> None:
        if monitor_interval_us <= 0:
            raise ConfigurationError("monitor interval must be positive")
        self.cluster = cluster
        self.router = router
        self.controller = MigrationController(cluster)
        self.monitor_interval_us = monitor_interval_us
        self.plans_generated = 0
        self._started = False

    def start(self) -> None:
        """Begin the periodic monitor loop."""
        if self._started:
            raise ConfigurationError("Clay controller already started")
        self._started = True
        self.cluster.kernel.call_later(self.monitor_interval_us, self._tick)

    def _tick(self) -> None:
        try:
            if not self.controller.active:
                plan = self._maybe_plan()
                if plan is not None and len(plan):
                    self.plans_generated += 1
                    self.controller.start(plan)
        finally:
            self.router.reset_window()
            self.cluster.kernel.call_later(self.monitor_interval_us, self._tick)

    def _maybe_plan(self) -> ColdMigrationPlan | None:
        """Detect overload and build a clump-migration plan, or None."""
        active = self.cluster.view.active_nodes
        loads = {
            node: self.router.window_node_load.get(node, 0.0) for node in active
        }
        total = sum(loads.values())
        if total <= 0:
            return None
        average = total / len(active)
        target = average * (1 + IMBALANCE_TOLERANCE)
        hottest = max(active, key=lambda node: (loads[node], -node))
        if loads[hottest] <= target:
            return None

        ownership = self.cluster.view.ownership
        # Hot clumps currently homed on the overloaded node, hottest first.
        candidates = sorted(
            (
                (heat, clump)
                for clump, heat in self.router.window_clump_heat.items()
                if ownership.owner(self.router.clump_probe_key(clump))
                == hottest
            ),
            reverse=True,
        )
        if not candidates:
            return None

        excess = loads[hottest] - average
        node_heat = sum(heat for heat, _clump in candidates) or 1.0
        load_per_heat = loads[hottest] / node_heat

        chunks: list[ChunkMigration] = []
        projected = dict(loads)
        for heat, clump in candidates[:MAX_CLUMPS_PER_PLAN]:
            if excess <= 0:
                break
            coldest = min(active, key=lambda node: (projected[node], node))
            if coldest == hottest:
                break
            relief = heat * load_per_heat
            keys = self.router.clump_keys(clump)
            # Integer key ranges move their static home; non-integer key
            # spaces (e.g. TPC-C warehouse clumps) track new placement
            # through the ownership overlay instead.
            reassign = (
                (keys[0], keys[-1] + 1)
                if keys and isinstance(keys[0], int)
                else None
            )
            chunks.append(
                ChunkMigration(
                    src=hottest,
                    dst=coldest,
                    keys=keys,
                    range_reassign=reassign,
                )
            )
            projected[hottest] -= relief
            projected[coldest] += relief
            excess -= relief
        if not chunks:
            return None
        return ColdMigrationPlan(tuple(chunks))
