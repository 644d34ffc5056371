"""Integration tests for the cluster engine: execution semantics."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.types import Transaction
from repro.core.prescient import PrescientRouter
from repro.baselines.calvin import CalvinRouter
from repro.baselines.gstore import GStoreRouter
from repro.baselines.leap import LeapRouter
from repro.engine.cluster import Cluster
from repro.engine.executor import LocalTxnRuntime, TxnRuntime
from repro.engine.ollp import OLLP
from repro.storage.partitioning import make_uniform_ranges
from tests.engine.test_ollp import INDEX_KEY, indexed_update_spec

NUM_KEYS = 300


def build(router=None, num_nodes=3, **kwargs):
    config = ClusterConfig(
        num_nodes=num_nodes,
        engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
    )
    cluster = Cluster(
        config,
        router if router is not None else CalvinRouter(),
        make_uniform_ranges(NUM_KEYS, num_nodes),
        validate_plans=True,
        **kwargs,
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


def run_txns(cluster, txns, max_us=30_000_000):
    for txn in txns:
        cluster.submit(txn)
    end = cluster.run_until_quiescent(max_us)
    assert cluster.inflight == 0, "cluster failed to drain"
    return end


class TestBasicExecution:
    def test_local_txn_commits(self):
        cluster = build()
        run_txns(cluster, [Transaction.read_write(1, [5], [5])])
        assert cluster.metrics.commits == 1
        assert cluster.nodes[0].store.read(5).version == 1

    def test_read_only_txn_changes_nothing(self):
        cluster = build()
        before = cluster.state_fingerprint()
        run_txns(cluster, [Transaction.read_only(1, [5, 150])])
        assert cluster.metrics.commits == 1
        assert cluster.state_fingerprint() == before

    def test_distributed_txn_writes_both_partitions(self):
        cluster = build()
        run_txns(cluster, [Transaction.read_write(1, [5, 150], [5, 150])])
        assert cluster.nodes[0].store.read(5).version == 1
        assert cluster.nodes[1].store.read(150).version == 1
        assert cluster.metrics.remote_reads > 0

    def test_conflicting_txns_serialize_in_order(self):
        cluster = build()
        txns = [Transaction.read_write(i, [7], [7]) for i in range(1, 6)]
        run_txns(cluster, txns)
        assert cluster.nodes[0].store.read(7).version == 5

    def test_locks_fully_released(self):
        cluster = build()
        txns = [
            Transaction.read_write(i, [i % 50, 100 + i % 50], [i % 50])
            for i in range(1, 40)
        ]
        run_txns(cluster, txns)
        assert cluster.lock_manager.outstanding() == 0


class TestMigrationSemantics:
    def test_leap_moves_records_to_master(self):
        cluster = build(router=LeapRouter())
        run_txns(cluster, [Transaction.read_write(1, [5, 150], [5, 150])])
        # Both records end on one node; total conserved.
        assert cluster.total_records() == NUM_KEYS
        placement = cluster.placement_snapshot()
        owner_of_5 = [n for n, keys in placement.items() if 5 in keys]
        owner_of_150 = [n for n, keys in placement.items() if 150 in keys]
        assert owner_of_5 == owner_of_150
        assert cluster.ownership.owner(5) == owner_of_5[0]

    def test_gstore_returns_records_home(self):
        cluster = build(router=GStoreRouter())
        run_txns(cluster, [Transaction.read_write(1, [5, 150], [5, 150])])
        placement = cluster.placement_snapshot()
        assert 5 in placement[0]
        assert 150 in placement[1]
        assert cluster.metrics.writebacks > 0
        assert cluster.ownership.owner(5) == 0

    def test_hermes_fuses_writes_only(self):
        cluster = build(router=PrescientRouter())
        # Read-write txn: write key remote, read key remote read-only.
        run_txns(cluster, [Transaction.read_write(1, [5, 150], [150])])
        master = cluster.ownership.owner(150)
        placement = cluster.placement_snapshot()
        assert 150 in placement[master]
        assert 5 in placement[0]  # read-only key stayed home

    def test_records_conserved_under_heavy_migration(self):
        cluster = build(router=LeapRouter())
        txns = [
            Transaction.read_write(i, [i % 100, 100 + i % 100, 200 + i % 100],
                                   [i % 100, 100 + i % 100])
            for i in range(1, 60)
        ]
        run_txns(cluster, txns)
        assert cluster.total_records() == NUM_KEYS


class TestAborts:
    def test_user_abort_rolls_back_values(self):
        cluster = build()
        ok = Transaction.read_write(1, [5], [5])
        bad = Transaction(
            txn_id=2, read_set=frozenset([5]), write_set=frozenset([5]),
            aborts=True,
        )
        run_txns(cluster, [ok, bad])
        assert cluster.metrics.commits == 1
        assert cluster.metrics.aborts == 1
        assert cluster.nodes[0].store.read(5).version == 1

    def test_aborted_txn_still_migrates(self):
        cluster = build(router=LeapRouter())
        bad = Transaction(
            txn_id=1, read_set=frozenset([5, 150]),
            write_set=frozenset([5, 150]), aborts=True,
        )
        run_txns(cluster, [bad])
        # Paper 4.2: the abort rolls back values but the records still
        # move per the routing plan so later plans stay consistent.
        master = cluster.ownership.owner(5)
        placement = cluster.placement_snapshot()
        assert 5 in placement[master]
        assert cluster.nodes[master].store.read(5).version == 0

    def test_abort_then_commit_on_same_key(self):
        cluster = build()
        bad = Transaction(
            txn_id=1, read_set=frozenset([5]), write_set=frozenset([5]),
            aborts=True,
        )
        ok = Transaction.read_write(2, [5], [5])
        run_txns(cluster, [bad, ok])
        assert cluster.nodes[0].store.read(5).version == 1

    # An abort is settled before the first write, so it never writes:
    # every node's ``store.write`` must see only committing writers.

    @staticmethod
    def spy_writes(cluster):
        """Wrap every node's ``store.write``; returns the writer ids seen."""
        writers = []
        for node in cluster.nodes:
            def write(key, txn_id, _write=node.store.write):
                writers.append(txn_id)
                return _write(key, txn_id)

            node.store.write = write
        return writers

    @staticmethod
    def submit_all(cluster, txns):
        """Submit and drain; returns each finished runtime by txn id."""
        runtimes = {}
        for txn in txns:
            cluster.submit(
                txn, on_commit=lambda r: runtimes.__setitem__(r.txn.txn_id, r)
            )
        cluster.run_until_quiescent(30_000_000)
        assert cluster.inflight == 0
        return runtimes

    def test_local_abort_never_writes(self):
        cluster = build()
        writers = self.spy_writes(cluster)
        bad = Transaction(
            txn_id=1, read_set=frozenset([5]), write_set=frozenset([5]),
            aborts=True,
        )
        ok = Transaction.read_write(2, [5], [5])
        runtimes = self.submit_all(cluster, [bad, ok])
        assert type(runtimes[1]) is LocalTxnRuntime
        assert runtimes[1].aborted
        assert writers == [2]

    def test_distributed_abort_never_writes(self):
        cluster = build()
        writers = self.spy_writes(cluster)
        bad = Transaction(
            txn_id=1, read_set=frozenset([5, 150]),
            write_set=frozenset([5, 150]), aborts=True,
        )
        ok = Transaction.read_write(2, [5, 150], [5, 150])
        runtimes = self.submit_all(cluster, [bad, ok])
        assert type(runtimes[1]) is TxnRuntime
        assert len(runtimes[1].plan.masters) == 2
        assert runtimes[1].aborted
        assert writers == [2, 2]

    def test_ollp_validation_abort_never_writes(self):
        cluster = build()
        writers = self.spy_writes(cluster)
        aborted = []
        submit = cluster.submit

        def note_aborts(txn, on_commit=None):
            def finished(runtime):
                if runtime.aborted:
                    aborted.append(runtime.txn.txn_id)
                if on_commit is not None:
                    on_commit(runtime)

            submit(txn, on_commit=finished)

        cluster.submit = note_aborts
        ollp = OLLP(cluster)
        # The index writer precedes the dependent transaction in the
        # total order, so the first attempt's prediction goes stale.
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
            )
        )
        ollp.submit(indexed_update_spec())
        cluster.run_until_quiescent(60_000_000)
        assert ollp.completed == 1 and ollp.restarts >= 1
        assert aborted
        assert set(aborted).isdisjoint(writers)
        assert len(set(writers)) == 2  # the index writer and the retry


class TestLatencyAccounting:
    def test_breakdown_sums_to_commit_latency(self):
        cluster = build()
        results = []
        txn = Transaction.read_write(1, [5, 150], [5, 150])
        cluster.submit(txn, on_commit=results.append)
        cluster.run_until_quiescent(10_000_000)
        runtime = results[0]
        stages = runtime.latency_stages()
        total = runtime.t_commit - runtime.t_sequenced
        assert sum(stages.values()) == pytest.approx(total, rel=1e-6)
        assert stages["remote_wait"] > 0


class TestTopologyTransaction:
    def test_announce_topology_changes_routing(self):
        cluster = build(num_nodes=3)
        cluster.view.set_active([0, 1])
        cluster.announce_topology([0, 1, 2])
        cluster.run_until_quiescent(10_000_000)
        assert cluster.view.active_nodes == [0, 1, 2]

    def test_topology_txn_commits_without_data(self):
        cluster = build()
        cluster.announce_topology([0, 1, 2])
        cluster.run_until_quiescent(10_000_000)
        assert cluster.inflight == 0
