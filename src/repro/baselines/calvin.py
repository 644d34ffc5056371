"""Vanilla Calvin routing (the paper's base system, Section 2).

Multi-master: a transaction is routed to every node that owns a record
it writes; each of those nodes collects the full read-set, runs the
transaction logic, and writes the records it owns.  Read-only
transactions execute at the node owning most of their read-set.  No data
ever changes owner, so partition quality is whatever the static
partitioner provides — which is precisely the weakness the paper
attacks.
"""

from __future__ import annotations

from repro.common.types import Batch
from repro.core.plan import RoutingPlan
from repro.core.router import (
    ClusterView,
    Router,
    build_chunk_migration_plan,
    build_multi_master_plan,
    split_system_txns,
)


class CalvinRouter(Router):
    """Multi-master routing over the static partitioning."""

    name = "calvin"

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        user_txns, plans, migration_txns = split_system_txns(batch, view)
        plan = RoutingPlan(epoch=batch.epoch, plans=plans)
        for txn in user_txns:
            plan.plans.append(build_multi_master_plan(txn, view))
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        return plan
