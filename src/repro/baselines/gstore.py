"""G-Store+ (look-present grouping), adapted as in Section 5.2.1.

G-Store [Das et al., SoCC'10] dynamically groups keys and provides
atomic access to the group at one node.  The paper adapts it to Calvin
by forming a group from each transaction's read/write-set, executing at
a single master — the node owning the majority of the accessed records —
and disbanding the group at commit: every pulled record is pushed back
to its original partition.

The pull-then-push-back round trip is G-Store's structural cost: it pays
two transfers per remote record and holds exclusive locks until the
push-back lands, so it benefits from temporal locality only while a
group exists — i.e. not at all across transactions.
"""

from __future__ import annotations

from repro.common.types import Batch
from repro.core.plan import RoutingPlan
from repro.core.router import (
    ClusterView,
    Router,
    build_chunk_migration_plan,
    build_single_master_plan,
    count_by_owner,
    majority_owner,
    split_system_txns,
)


class GStoreRouter(Router):
    """Per-transaction grouping at the majority owner, disbanded at commit."""

    name = "gstore"

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        user_txns, plans, migration_txns = split_system_txns(batch, view)
        plan = RoutingPlan(epoch=batch.epoch, plans=plans)
        # Groups disband at commit (``update_view=False``), so ownership
        # never changes mid-batch and one footprint pass per transaction
        # serves both the majority vote and the plan build.
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
                    writeback_remote=True,
                    update_view=False,
                    owners=owners,
                )
            )
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        return plan
