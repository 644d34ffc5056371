"""Unit tests for OwnershipView, ClusterView, and plan-builder helpers."""

import dataclasses
import random

import pytest

from repro.baselines.calvin import CalvinRouter
from repro.common.config import ClusterConfig
from repro.common.errors import RoutingError
from repro.common.types import Batch, Transaction, TxnKind
from repro.core.plan import TxnPlan
from repro.core.provisioning import ChunkMigration
from repro.core.router import (
    ClusterView,
    DictOverlay,
    OwnershipView,
    _multi_master_plan_by_key,
    build_chunk_migration_plan,
    build_multi_master_plan,
    build_single_master_plan,
    build_topology_plan,
    count_by_owner,
    majority_owner,
    split_system_txns,
)
from repro.engine.cluster import Cluster
from repro.engine.executor import LocalTxnRuntime, TxnRuntime, make_runtime
from repro.storage.partitioning import make_uniform_ranges


def make_view(num_nodes=3, num_keys=300):
    return ClusterView(
        range(num_nodes),
        OwnershipView(make_uniform_ranges(num_keys, num_nodes)),
    )


def rw(txn_id, reads, writes):
    return Transaction.read_write(txn_id, reads, writes)


class TestOwnershipView:
    def test_overlay_overrides_static(self):
        view = OwnershipView(make_uniform_ranges(300, 3))
        assert view.owner(5) == 0
        view.record_move(5, 2)
        assert view.owner(5) == 2
        assert view.home(5) == 0

    def test_move_home_clears_overlay(self):
        view = OwnershipView(make_uniform_ranges(300, 3))
        view.record_move(5, 2)
        view.record_move(5, 0)  # back home
        assert isinstance(view.overlay, DictOverlay)
        assert len(view.overlay) == 0

    def test_dict_overlay_never_evicts(self):
        overlay = DictOverlay()
        for key in range(100):
            assert overlay.put(key, 1) == []
        assert len(overlay) == 100


class TestClusterView:
    def test_requires_active_nodes(self):
        with pytest.raises(RoutingError):
            ClusterView([], OwnershipView(make_uniform_ranges(10, 1)))

    def test_set_active_sorts(self):
        view = make_view()
        view.set_active([2, 0])
        assert view.active_nodes == [0, 2]

    def test_cannot_deactivate_all(self):
        view = make_view()
        with pytest.raises(RoutingError):
            view.set_active([])


class TestOwnerHelpers:
    def test_count_by_owner(self):
        view = make_view()
        counts = count_by_owner(rw(1, [5, 6, 150], [150]), view)
        assert counts == {0: 2, 1: 1}

    def test_majority_owner_prefers_max(self):
        view = make_view()
        assert majority_owner(rw(1, [5, 6, 150], [150]), view) == 0

    def test_majority_tie_is_deterministic_and_spread(self):
        view = make_view()
        choices = {
            majority_owner(rw(i, [5, 150], [150]), view) for i in range(10)
        }
        # Tie between node 0 and node 1 spreads by txn id, hitting both.
        assert choices == {0, 1}

    def test_inactive_owner_excluded(self):
        view = make_view()
        view.set_active([0, 1])
        assert majority_owner(rw(1, [250], [250]), view) in (0, 1)


class TestSingleMasterBuilder:
    def test_plain_mode_ships_write_to_owner(self):
        view = make_view()
        plan = build_single_master_plan(rw(1, [5, 150], [150]), 0, view)
        assert plan.writes_at == {1: frozenset([150])}
        assert plan.migrations == ()

    def test_migrate_writes_moves_ownership(self):
        view = make_view()
        plan = build_single_master_plan(
            rw(1, [5, 150], [150]), 0, view, migrate_writes=True
        )
        assert plan.writes_at == {0: frozenset([150])}
        assert view.ownership.owner(150) == 0

    def test_update_view_false_leaves_view(self):
        view = make_view()
        build_single_master_plan(
            rw(1, [5, 150], [150]), 0, view,
            migrate_writes=True, update_view=False,
        )
        assert view.ownership.owner(150) == 1


class TestMultiMasterBuilder:
    def test_read_only_gets_single_master(self):
        view = make_view()
        plan = build_multi_master_plan(Transaction.read_only(1, [5, 150]), view)
        assert len(plan.masters) == 1


class TestAllLocalPlan:
    """A footprint one active node owns is planned in one step; the plan
    must equal, field by field, the one the key-by-key case builds."""

    @staticmethod
    def draw(rng, txn_id):
        """Keys from one node's range or from two; read-write, read-only
        or with a blind write."""
        node = rng.randrange(3)
        keys = rng.sample(range(node * 100, node * 100 + 100), rng.randint(2, 4))
        if rng.random() < 0.5:
            keys[-1] = (node + 1 + rng.randrange(2)) % 3 * 100 + rng.randrange(100)
        shape = rng.choice(("rw", "ro", "blind"))
        if shape == "ro":
            return Transaction.read_only(txn_id, keys)
        if shape == "blind":
            return rw(txn_id, keys[1:], keys[:1])
        return rw(txn_id, keys, rng.sample(keys, rng.randint(1, len(keys))))

    @pytest.mark.parametrize("active", [(0, 1, 2), (0, 1)])
    def test_early_plan_equals_general_plan(self, active):
        view = make_view()
        view.set_active(active)
        cluster = Cluster(
            ClusterConfig(num_nodes=3), CalvinRouter(), make_uniform_ranges(300, 3)
        )
        rng = random.Random(7)
        seen = set()
        for txn_id in range(200):
            txn = self.draw(rng, txn_id)
            owners = view.ownership.owners_bulk(txn.ordered_keys)
            plan = build_multi_master_plan(txn, view, owners)
            general = _multi_master_plan_by_key(txn, view, owners)
            for field in dataclasses.fields(TxnPlan):
                assert getattr(plan, field.name) == getattr(
                    general, field.name
                ), (txn, field.name)
            one_owner = len(set(owners)) == 1
            owner_active = owners[0] in active
            runtime = make_runtime(cluster, plan, 1, 0.0, 0.0, lambda r: None)
            if one_owner and (owner_active or txn.write_set):
                assert type(runtime) is LocalTxnRuntime, txn
            else:
                assert type(runtime) is TxnRuntime, txn
            seen.add((one_owner, owner_active, bool(txn.write_set)))
        # Every case was drawn: one owner or several, active or not,
        # writing or read-only (node 2 is inactive in the second run).
        expected = {(one, True, w) for one in (True, False) for w in (True, False)}
        if len(active) < 3:
            expected |= {(True, False, True), (True, False, False)}
        assert expected <= seen


class TestSystemPlans:
    def test_topology_plan_requires_kind(self):
        view = make_view()
        with pytest.raises(RoutingError):
            build_topology_plan(rw(1, [1], [1]), view)

    def test_chunk_plan_moves_only_keys_at_src(self):
        view = make_view()
        view.ownership.record_move(5, 2)  # key 5 fused away from node 0
        chunk = ChunkMigration(src=0, dst=2, keys=(5, 6, 7))
        txn = Transaction(
            txn_id=9, read_set=frozenset(chunk.keys), write_set=frozenset(),
            kind=TxnKind.MIGRATION, payload=chunk,
        )
        plan = build_chunk_migration_plan(txn, view)
        moved = {m.key for m in plan.migrations}
        assert moved == {6, 7}

    def test_chunk_plan_reassigns_static_range(self):
        view = make_view()
        chunk = ChunkMigration(src=0, dst=2, keys=tuple(range(0, 10)),
                               range_reassign=(0, 10))
        txn = Transaction(
            txn_id=9, read_set=frozenset(chunk.keys), write_set=frozenset(),
            kind=TxnKind.MIGRATION, payload=chunk,
        )
        build_chunk_migration_plan(txn, view)
        assert view.ownership.static.home(5) == 2

    def test_chunk_plan_missing_payload_rejected(self):
        view = make_view()
        txn = Transaction(
            txn_id=9, read_set=frozenset([1]), write_set=frozenset(),
            kind=TxnKind.MIGRATION,
        )
        with pytest.raises(RoutingError):
            build_chunk_migration_plan(txn, view)


class TestSplitSystemTxns:
    def test_split_applies_topology(self):
        view = make_view()
        view.set_active([0, 1])
        topo = Transaction(
            txn_id=1, read_set=frozenset(), write_set=frozenset(),
            kind=TxnKind.TOPOLOGY, payload=(0, 1, 2),
        )
        chunk_txn = Transaction(
            txn_id=2, read_set=frozenset([1]), write_set=frozenset(),
            kind=TxnKind.MIGRATION,
            payload=ChunkMigration(src=0, dst=1, keys=(1,)),
        )
        user = rw(3, [5], [5])
        users, plans, migrations = split_system_txns(
            Batch(1, [topo, user, chunk_txn]), view
        )
        assert users == [user]
        assert len(plans) == 1
        assert migrations == [chunk_txn]
        assert view.active_nodes == [0, 1, 2]


class TestOwnersBulk:
    """owners_bulk must agree with scalar owner() and see every update."""

    def test_matches_scalar_owner(self):
        view = OwnershipView(make_uniform_ranges(300, 3))
        view.record_move(5, 2)
        view.record_move(250, 0)
        keys = [0, 5, 99, 100, 250, 299, 5]
        assert view.owners_bulk(keys) == [view.owner(k) for k in keys]

    def test_duplicate_keys_allowed(self):
        view = OwnershipView(make_uniform_ranges(30, 3))
        assert view.owners_bulk([1, 1, 1]) == [0, 0, 0]
        assert view.owners_bulk([]) == []

    def test_home_cache_sees_static_reassignment(self):
        static = make_uniform_ranges(300, 3)
        view = OwnershipView(static)
        assert view.owner(5) == 0
        assert view.owners_bulk([5]) == [0]  # warm the memoized home
        static.reassign(0, 10, 2)
        assert view.home(5) == 2
        assert view.owner(5) == 2
        assert view.owners_bulk([5]) == [2]

    def test_overlay_still_wins_after_reassignment(self):
        static = make_uniform_ranges(300, 3)
        view = OwnershipView(static)
        view.record_move(5, 1)
        static.reassign(0, 10, 2)
        assert view.owners_bulk([5, 6]) == [1, 2]
