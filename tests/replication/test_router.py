"""ReplicationRouter: rewrite semantics, ordering, and the off path."""

import pytest

from repro.common.config import RoutingConfig
from repro.common.types import Batch, Transaction
from repro.core.plan import TxnPlan
from repro.core.prescient import PrescientRouter
from repro.core.router import ClusterView, OwnershipView
from repro.forecast.forecasters import OracleForecaster
from repro.replication.router import ReplicationConfig, ReplicationRouter
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4  # node n owns [n*100, (n+1)*100)


def make_view() -> ClusterView:
    ownership = OwnershipView(make_uniform_ranges(NUM_KEYS, NUM_NODES))
    return ClusterView(range(NUM_NODES), ownership)


def make_router(**overrides) -> ReplicationRouter:
    params = dict(
        key_lo=0, key_hi=NUM_KEYS, range_records=50,
        provision_interval=2,
    )
    params.update(overrides)
    return ReplicationRouter(
        OracleForecaster(), ReplicationConfig(**params)
    )


def rewrite(router, view, txn, *, masters=(0,), reads_from=None):
    """Route one txn plan through the rewrite stage."""
    if reads_from is None:
        ownership = view.ownership
        reads_from = {}
        for key in txn.ordered_keys:
            loc = ownership.owner(key)
            reads_from.setdefault(loc, set()).add(key)
        reads_from = {
            loc: frozenset(keys) for loc, keys in reads_from.items()
        }
    writes_at = (
        {masters[0]: frozenset(txn.write_set)} if txn.write_set else {}
    )
    plan = TxnPlan(
        txn=txn, masters=tuple(masters),
        reads_from=reads_from, writes_at=writes_at,
    )
    return router._rewrite_plan(plan, view)


class TestConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ReplicationConfig(key_lo=10, key_hi=10)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ReplicationConfig(key_lo=0, key_hi=10, provision_interval=0)


class TestRewrite:
    def test_remote_read_moves_to_valid_holder(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)  # node 1 holds 250-299
        txn = Transaction.read_only(8, [10, 250])
        plan = rewrite(router, view, txn)
        assert plan is not None
        assert plan.reads_from == {
            0: frozenset({10}), 1: frozenset({250}),
        }
        assert plan.replica_reads == {1: frozenset({250})}
        assert plan.cloned_reads is None
        plan.validate()

    def test_master_holder_localizes_the_read(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 0, epoch=1)
        txn = Transaction.read_only(8, [10, 250])
        plan = rewrite(router, view, txn)
        assert plan.reads_from == {0: frozenset({10, 250})}
        assert plan.replica_reads == {0: frozenset({250})}
        assert plan.remote_read_count() == 0
        assert router.replica_local_keys == 1

    def test_no_valid_holder_leaves_plan_alone(self):
        router = make_router()
        view = make_view()
        txn = Transaction.read_only(8, [10, 250])
        assert rewrite(router, view, txn) is None

    def test_invalidated_holder_not_used(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.directory.invalidate(5, epoch=2)
        txn = Transaction.read_only(8, [10, 250])
        assert rewrite(router, view, txn) is None

    def test_written_keys_keep_primary_serve(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        txn = Transaction.read_write(8, [10, 250], [250])
        assert rewrite(router, view, txn) is None

    def test_holder_equal_to_primary_serve_skipped(self):
        # The only valid holder is the key's own primary owner: a
        # side-store read there buys nothing.
        router = make_router()
        view = make_view()
        router.directory.install(5, 2, epoch=1)  # owner of 250 is node 2
        txn = Transaction.read_only(8, [10, 250])
        assert rewrite(router, view, txn) is None

    def test_multi_master_plans_untouched(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        txn = Transaction.read_write(8, [10, 250], [10])
        plan = rewrite(
            router, view, txn, masters=(0, 2),
            reads_from={0: frozenset({10}), 2: frozenset({250})},
        )
        assert plan is None

    def test_fully_local_plans_untouched(self):
        router = make_router()
        view = make_view()
        router.directory.install(0, 1, epoch=1)
        txn = Transaction.read_only(8, [10, 20])
        assert rewrite(router, view, txn) is None

    def test_tie_break_by_txn_id_over_sorted_holders(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.directory.install(5, 3, epoch=1)
        plans = {}
        for txn_id in (10, 11):
            fresh = make_router()
            fresh.directory.install(5, 1, epoch=1)
            fresh.directory.install(5, 3, epoch=1)
            txn = Transaction.read_only(txn_id, [10, 250])
            plans[txn_id] = rewrite(fresh, view, txn)
        assert plans[10].replica_reads == {1: frozenset({250})}
        assert plans[11].replica_reads == {3: frozenset({250})}

    def test_load_balancing_prefers_least_loaded_holder(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.directory.install(5, 3, epoch=1)
        first = rewrite(router, view, Transaction.read_only(10, [10, 250]))
        second = rewrite(router, view, Transaction.read_only(12, [20, 251]))
        (loc1,) = first.replica_reads
        (loc2,) = second.replica_reads
        assert {loc1, loc2} == {1, 3}  # second pick avoids the loaded one

    def test_clone_mode_adds_other_holders(self):
        router = make_router(clone=True)
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.directory.install(5, 3, epoch=1)
        txn = Transaction.read_only(10, [10, 250])
        plan = rewrite(router, view, txn)
        assert plan.replica_reads == {1: frozenset({250})}
        assert plan.cloned_reads == {3: frozenset({250})}
        assert router.cloned_keys == 1
        plan.validate()

    def test_clone_mode_single_holder_has_no_clones(self):
        router = make_router(clone=True)
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        txn = Transaction.read_only(10, [10, 250])
        plan = rewrite(router, view, txn)
        assert plan.cloned_reads is None

    def test_clone_mode_hedges_localized_reads(self):
        # The master itself holds a valid copy: the read localizes, but
        # the other holders still clone-serve it — data-ready fires on
        # first coverage, so a remote clone hedges against the master's
        # own backed-up store queue (the single-consumer regime, where
        # the only replica reads are the consumer's localized ones).
        router = make_router(clone=True)
        view = make_view()
        router.directory.install(5, 0, epoch=1)
        router.directory.install(5, 1, epoch=1)
        router.directory.install(5, 3, epoch=1)
        txn = Transaction.read_only(10, [10, 250])
        plan = rewrite(router, view, txn)
        assert plan.replica_reads == {0: frozenset({250})}
        assert plan.cloned_reads == {
            1: frozenset({250}), 3: frozenset({250})
        }
        assert router.cloned_keys == 2
        plan.validate()


class TestRouteBatch:
    def test_same_batch_write_invalidates_before_routing(self):
        # The write and the read arrive in the SAME batch: the write's
        # invalidation must land first, so the read stays on primary.
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=0)
        batch = Batch(epoch=1, txns=[
            Transaction.read_only(1, [10, 250]),
            Transaction.read_write(2, [260], [260]),
        ])
        plan = router.route_batch(batch, view)
        for txn_plan in plan:
            assert txn_plan.replica_reads is None
        assert router.directory.valid_holders(5, range(NUM_NODES)) == []

    def test_read_after_reinstall_uses_replica(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=3)
        batch = Batch(epoch=2, txns=[
            Transaction.read_only(1, [10, 250]),
        ])
        plan = router.route_batch(batch, view)
        reads = [p for p in plan if p.replica_reads is not None]
        assert len(reads) == 1

    def test_attaches_directory_to_ownership_view(self):
        router = make_router()
        view = make_view()
        assert view.ownership.replicas is None
        router.route_batch(Batch(epoch=0, txns=[]), view)
        assert view.ownership.replicas is router.directory

    def test_empty_directory_routes_identically_to_prescient(self):
        # Replication off (nothing provisioned): the wrapper must be a
        # byte-transparent shell around plain Hermes.
        config = RoutingConfig()
        plain = PrescientRouter(config)
        wrapped = ReplicationRouter(
            OracleForecaster(),
            ReplicationConfig(key_lo=0, key_hi=NUM_KEYS, range_records=50),
            config,
        )
        txns = [
            Transaction.read_only(1, [10, 250]),
            Transaction.read_write(2, [20, 130], [20]),
            Transaction.read_write(3, [310, 40, 250], [310]),
        ]
        view_a, view_b = make_view(), make_view()
        for epoch in range(3):
            batch = Batch(epoch=epoch, txns=list(txns))
            got = wrapped.route_batch(batch, view_a)
            want = plain.route_batch(batch, view_b)
            assert got.plans == want.plans

    def test_stats_snapshot_includes_directory_counters(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.route_batch(Batch(epoch=2, txns=[
            Transaction.read_only(1, [10, 250]),
        ]), view)
        stats = router.stats_snapshot()
        assert stats["replica_keys"] == 1
        assert stats["replica_installs"] == 1
        assert stats["replica_ranges_tracked"] == 1

    def test_reset_stats_clears_counters_and_load(self):
        router = make_router()
        view = make_view()
        router.directory.install(5, 1, epoch=1)
        router.route_batch(Batch(epoch=2, txns=[
            Transaction.read_only(1, [10, 250]),
        ]), view)
        router.reset_stats()
        assert router.replica_keys == 0
        assert router._holder_load == {}
