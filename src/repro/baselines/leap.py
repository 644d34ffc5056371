"""LEAP (look-present data fusion) [Lin et al., SIGMOD'16].

LEAP routes each transaction to a single master and *migrates* every
accessed record there, so later transactions touching the same records
find them co-located — the temporal-locality win the paper credits LEAP
with.  Its two structural weaknesses, both reproduced here, are:

* no load balancing — the master is always the current majority owner,
  so hot record groups snowball onto one node; and
* the ping-pong problem — consecutive transactions alternating between
  record groups drag the records back and forth because each routing
  decision sees only one transaction.
"""

from __future__ import annotations

from repro.common.types import Batch
from repro.core.plan import RoutingPlan
from repro.core.router import (
    ClusterView,
    DictOverlay,
    Router,
    build_chunk_migration_plan,
    build_single_master_plan,
    count_by_owner,
    majority_owner,
    split_system_txns,
)


class LeapRouter(Router):
    """Single-master fusion of each transaction's footprint, no balance.

    Pair this router with an unbounded :class:`DictOverlay` (the default
    cluster overlay) — LEAP has no eviction story, which is one of the
    problems the bounded fusion table fixes.
    """

    name = "leap"

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        user_txns, plans, migration_txns = split_system_txns(batch, view)
        plan = RoutingPlan(epoch=batch.epoch, plans=plans)
        # One footprint resolution per transaction feeds both the
        # majority vote and the plan build.  It is resolved after the
        # previous transaction's migrations, so it is never stale.
        owners_bulk = view.ownership.owners_bulk
        for txn in user_txns:
            owners = owners_bulk(txn.ordered_keys)
            counts = count_by_owner(txn, view, owners=owners)
            master = majority_owner(txn, view, counts)
            plan.plans.append(
                build_single_master_plan(
                    txn,
                    master,
                    view,
                    migrate_writes=True,
                    migrate_reads=True,
                    owners=owners,
                )
            )
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        return plan


__all__ = ["LeapRouter", "DictOverlay"]
