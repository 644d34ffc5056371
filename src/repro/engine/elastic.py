"""Elastic resize under load: add or remove nodes on a live cluster.

Wraps the Section 3.3 provisioning pieces into one driver the serving
layer (:mod:`repro.serve`) can call between epochs: a resize issues the
totally ordered TOPOLOGY transaction and starts the cold-chunk
migration session in a single step, so every scheduler replica switches
topology at the same point in the total order while the background
chunks drain through the normal pausable session machinery.

Both directions are deterministic functions of the live range map
(:meth:`~repro.storage.partitioning.RangePartitioner.owner_spans`),
chunked at the engine's ``migration_chunk_records``:

* ``add_node`` has every active node hand the tail ``1/(n+1)`` of each
  of its contiguous spans to the newcomer
  (:func:`~repro.core.provisioning.plan_scale_out`).
* ``remove_node`` spreads the departing node's spans round-robin over
  the survivors (:func:`~repro.core.provisioning.plan_consolidation`).

A resize while a previous migration session is still draining raises
:class:`~repro.common.errors.SimulationError` — overlapping sessions
would interleave chunk streams nondeterministically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import NodeId
from repro.core.provisioning import (
    ColdMigrationPlan,
    plan_consolidation,
    plan_scale_out,
)
from repro.engine.migration import MigrationController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cluster import Cluster

__all__ = ["ElasticDirector"]


class ElasticDirector:
    """Adds and removes nodes on a live cluster, with data movement."""

    def __init__(self, cluster: "Cluster", num_keys: int) -> None:
        self.cluster = cluster
        self.num_keys = num_keys
        self.controller = MigrationController(cluster)
        self.resizes = 0

    def _check_idle(self, action: str) -> None:
        if self.controller.active:
            raise SimulationError(
                f"cannot {action}: a migration session is still draining"
            )

    # ------------------------------------------------------------------
    # Resize events
    # ------------------------------------------------------------------

    def add_node(self, node: NodeId) -> int:
        """Activate ``node`` and migrate data onto it; returns chunk count.

        Every active node cedes the tail ``1/(n+1)`` of each of its
        contiguous spans, so the newcomer ends up with roughly an even
        share of the keyspace.
        """
        self._check_idle("add a node")
        actives = list(self.cluster.view.active_nodes)
        if node in actives:
            raise ConfigurationError(f"node {node} is already active")
        if not 0 <= node < self.cluster.config.num_nodes:
            raise ConfigurationError(f"node {node} out of physical range")
        share = len(actives) + 1
        moves = []
        spans = self.cluster.ownership.static.owner_spans(0, self.num_keys)
        for lo, hi, owner in spans:
            give = (hi - lo) // share
            if owner in actives and give > 0:
                moves.append((owner, hi - give, hi))
        plan = plan_scale_out(node, moves, self._chunk_records())
        return self._resize([*actives, node], plan)

    def remove_node(self, node: NodeId) -> int:
        """Deactivate ``node`` and drain its data; returns chunk count."""
        self._check_idle("remove a node")
        actives = list(self.cluster.view.active_nodes)
        if node not in actives:
            raise ConfigurationError(f"node {node} is not active")
        survivors = [n for n in actives if n != node]
        plan = plan_consolidation(
            node,
            survivors,
            self.cluster.ownership.static,
            0,
            self.num_keys,
            self._chunk_records(),
        )
        return self._resize(survivors, plan)

    def _chunk_records(self) -> int:
        return self.cluster.config.engine.migration_chunk_records

    def _resize(
        self, active_nodes: list[NodeId], plan: ColdMigrationPlan
    ) -> int:
        """Announce the new active set, then start the cold plan."""
        self.cluster.announce_topology(active_nodes)
        if plan.chunks:
            self.controller.start(plan)
        self.resizes += 1
        return len(plan)

    def apply(self, kind: str, node: NodeId) -> int:
        """Dispatch a journaled resize record (``"add"`` / ``"remove"``)."""
        if kind == "add":
            return self.add_node(node)
        if kind == "remove":
            return self.remove_node(node)
        raise ConfigurationError(f"unknown resize kind {kind!r}")
