"""Clone mode with a single hot consumer: fanout provisioning.

Regression for the dead-path bug where request cloning only ever
engaged when *two* consumers demanded the same range: with one hot
consumer the directory held exactly one replica, making cloning
vacuous.  Clone mode now forces an effective provisioning fanout of at
least two, so a single consumer's demand still yields multiple holders
and ``cloned_reads`` fires.  The end-to-end assertions here fail on the
pre-PR code (``cloned_keys`` stayed zero).
"""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction
from repro.core.router import ClusterView, OwnershipView
from repro.engine.cluster import Cluster
from repro.forecast.forecasters import OracleForecaster
from repro.replication import provision
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.directory import ReplicaDirectory
from repro.replication.provision import ReplicaProvisioner
from repro.replication.router import ReplicationConfig, ReplicationRouter
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4  # node n owns [n*100, (n+1)*100)
RANGE_RECORDS = 50
EPOCH_US = 5_000.0
HOT_LO = 250  # hot read range (range 5), owned by node 2
END_US = 150_000.0


def make_view() -> ClusterView:
    ownership = OwnershipView(make_uniform_ranges(NUM_KEYS, NUM_NODES))
    return ClusterView(range(NUM_NODES), ownership)


def read_only(txn_id, keys):
    return Transaction.read_only(txn_id, keys)


class TestFanoutProvisioning:
    def make_provisioner(self, **overrides) -> ReplicaProvisioner:
        params = dict(range_records=RANGE_RECORDS, key_lo=0, key_hi=NUM_KEYS)
        params.update(overrides)
        return ReplicaProvisioner(**params)

    def test_single_consumer_demand_fans_out(self):
        # One consumer (node 0) demands range 5; fanout=2 must plan a
        # second copy at another node so clones have a target.
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 260])])
        chunks = self.make_provisioner(fanout=2).plan(
            batch, make_view(), ReplicaDirectory(RANGE_RECORDS)
        )
        assert len(chunks) == 2
        dsts = {chunk.dst for chunk in chunks}
        assert 0 in dsts and len(dsts) == 2
        for chunk in chunks:
            assert chunk.copy is True
            assert chunk.keys == tuple(range(250, 300))

    def test_fanout_one_preserves_old_behaviour(self):
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 260])])
        chunks = self.make_provisioner(fanout=1).plan(
            batch, make_view(), ReplicaDirectory(RANGE_RECORDS)
        )
        assert [chunk.dst for chunk in chunks] == [0]

    def test_fanout_respects_cycle_cap(self, monkeypatch):
        monkeypatch.setattr(provision, "MAX_RANGES_PER_CYCLE", 2)
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 260])])
        chunks = self.make_provisioner(fanout=3).plan(
            batch, make_view(), ReplicaDirectory(RANGE_RECORDS)
        )
        assert len(chunks) == 2

    def test_fanout_deterministic(self):
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 260])])
        first = self.make_provisioner(fanout=3).plan(
            batch, make_view(), ReplicaDirectory(RANGE_RECORDS)
        )
        second = self.make_provisioner(fanout=3).plan(
            batch, make_view(), ReplicaDirectory(RANGE_RECORDS)
        )
        assert first == second


def build_cluster(clone: bool):
    router = ReplicationRouter(
        OracleForecaster(),
        ReplicationConfig(
            key_lo=0, key_hi=NUM_KEYS, range_records=RANGE_RECORDS,
            provision_interval=2, clone=clone,
            # Clone mode forces an effective fanout of two; matching it
            # explicitly keeps the clone/no-clone install plans (and so
            # the txn-id stream) identical for the parity check.
            fanout=2,
        ),
    )
    cluster = Cluster(
        ClusterConfig(
            num_nodes=NUM_NODES,
            engine=EngineConfig(
                epoch_us=EPOCH_US,
                workers_per_node=2,
                migration_chunk_records=RANGE_RECORDS,
                migration_chunk_gap_us=2_000.0,
            ),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, NUM_NODES),
    )
    cluster.load_data(range(NUM_KEYS))
    coordinator = ReplicationCoordinator(cluster, router)
    return cluster, router, coordinator


def run_scenario(clone: bool):
    """ONE read-heavy locality (node 0) sharing node 2's hot range."""
    cluster, router, coordinator = build_cluster(clone)
    rng = DeterministicRNG(7, "load")

    def submit_burst():
        now = cluster.kernel.now
        if now > END_US:
            return
        for _ in range(3):
            local = rng.randint(0, 99)
            hot = HOT_LO + rng.randint(0, RANGE_RECORDS - 1)
            cluster.submit(Transaction.read_only(
                cluster.next_txn_id(), [local, hot]
            ))
        # Write trickle away from the hot range so invalidations exist.
        victim = 300 + rng.randint(0, 99)
        cluster.submit(Transaction.read_write(
            cluster.next_txn_id(), [victim], [victim]
        ))
        cluster.kernel.call_later(EPOCH_US, submit_burst)

    submit_burst()
    cluster.run_until_quiescent(60_000_000)
    return cluster, router, coordinator


class TestSingleConsumerClone:
    def setup_method(self):
        self.cluster, self.router, self.coordinator = run_scenario(
            clone=True
        )

    def test_cloned_reads_fire_with_one_hot_consumer(self):
        # THE regression: a single consumer's demand must still produce
        # multiple holders, so request cloning has somewhere to go.
        assert self.router.cloned_keys > 0
        assert (
            self.cluster.metrics.cloned_reads == self.router.cloned_keys
        )

    def test_hot_range_fanned_out_to_multiple_holders(self):
        directory = self.router.directory
        assert directory.holder_count(HOT_LO // RANGE_RECORDS) >= 2

    def test_cloning_never_changes_state(self):
        baseline, _, _ = run_scenario(clone=False)
        assert (
            self.cluster.state_fingerprint()
            == baseline.state_fingerprint()
        )
        assert self.cluster.total_records() == NUM_KEYS

    def test_deterministic_across_runs(self):
        second_c, second_r, _ = run_scenario(clone=True)
        assert (
            self.cluster.state_fingerprint()
            == second_c.state_fingerprint()
        )
        assert self.router.stats_snapshot() == second_r.stats_snapshot()
