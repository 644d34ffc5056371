"""Live-cluster replication: provision -> install -> serve -> verify.

One scenario run end to end through the sequencer, the migration
session machinery, and the executor's lock-free replica serve paths.
The workload is two read-heavy localities (masters on nodes 0 and 1)
sharing a remote hot range owned by node 2, plus a trickle of writes
elsewhere — enough demand for the provisioner to install the hot range
at *both* consumers, which is also what makes clone mode observable.
"""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.engine.cluster import Cluster
from repro.forecast.forecasters import OracleForecaster
from repro.obs.tracer import Tracer
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.router import ReplicationConfig, ReplicationRouter
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4  # node n owns [n*100, (n+1)*100)
EPOCH_US = 5_000.0
HOT_LO = 250  # hot read range, owned by node 2
END_US = 150_000.0


def build_cluster(clone: bool, with_tracer: bool = True):
    router = ReplicationRouter(
        OracleForecaster(),
        ReplicationConfig(
            key_lo=0, key_hi=NUM_KEYS, range_records=50,
            provision_interval=2, clone=clone,
        ),
    )
    tracer = (
        Tracer(preset="replication-e2e", seed=11) if with_tracer else None
    )
    cluster = Cluster(
        ClusterConfig(
            num_nodes=NUM_NODES,
            engine=EngineConfig(
                epoch_us=EPOCH_US,
                workers_per_node=2,
                migration_chunk_records=50,
                migration_chunk_gap_us=2_000.0,
            ),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, NUM_NODES),
        tracer=tracer,
    )
    cluster.load_data(range(NUM_KEYS))
    coordinator = ReplicationCoordinator(cluster, router)
    return cluster, router, coordinator


def run_scenario(clone: bool):
    cluster, router, coordinator = build_cluster(clone)
    rng = DeterministicRNG(7, "load")

    def submit_burst():
        now = cluster.kernel.now
        if now > END_US:
            return
        for home in (0, 100):  # locality anchors on nodes 0 and 1
            for _ in range(3):
                local = home + rng.randint(0, 99)
                hot = HOT_LO + rng.randint(0, 49)
                cluster.submit(Transaction.read_only(
                    cluster.next_txn_id(), [local, hot]
                ))
        # Write trickle away from the hot range, so invalidations
        # exist but never starve replica serves entirely.
        victim = 300 + rng.randint(0, 99)
        cluster.submit(Transaction.read_write(
            cluster.next_txn_id(), [victim], [victim]
        ))
        cluster.kernel.call_later(EPOCH_US, submit_burst)

    submit_burst()
    cluster.run_until_quiescent(60_000_000)
    return cluster, router, coordinator


class TestReplicationEndToEnd:
    def setup_method(self):
        self.cluster, self.router, self.coordinator = run_scenario(
            clone=False
        )

    def test_replicas_provisioned_and_served(self):
        assert self.router.provision_cycles > 0
        assert self.router.directory.installs_total > 0
        assert self.router.replica_keys > 0
        assert self.cluster.metrics.replica_reads == self.router.replica_keys
        assert self.cluster.metrics.replica_installs > 0

    def test_hot_range_installed_at_both_consumers(self):
        holders = self.router.directory.valid_holders(
            HOT_LO // 50, range(NUM_NODES)
        )
        assert set(holders) >= {0, 1}

    def test_primary_placement_untouched(self):
        # Replica installs copy; they never move ownership or records.
        assert self.cluster.total_records() == NUM_KEYS
        placement = self.cluster.placement_snapshot()
        for node in range(NUM_NODES):
            assert placement[node] == frozenset(
                range(node * 100, (node + 1) * 100)
            )

    def test_session_accounting_reports_wire_bytes(self):
        assert self.coordinator.replication_records() > 0
        assert self.coordinator.replication_bytes() >= 0
        (installs,) = self.cluster.metrics.registry.find(
            "replica_range_installs_total"
        )
        assert installs.value == self.router.directory.installs_total

    def test_write_hot_ranges_never_replicated(self):
        # Node 3's keys took writes every epoch: the provisioner's
        # write-hot exclusion keeps those ranges out of the directory
        # entirely, so there is nothing to invalidate and no replica
        # ever serves a written range.
        directory = self.router.directory
        for rid in range(300 // 50, NUM_KEYS // 50):
            assert directory.valid_holders(rid, range(NUM_NODES)) == []
            assert rid not in directory.tracked_ranges()

    def test_all_txns_commit(self):
        metrics = self.cluster.metrics
        assert metrics.commits > 0
        assert self.cluster.inflight == 0


class TestDeterminism:
    def test_dual_run_identical(self):
        first_c, first_r, _ = run_scenario(clone=False)
        second_c, second_r, _ = run_scenario(clone=False)
        assert first_c.state_fingerprint() == second_c.state_fingerprint()
        assert first_r.stats_snapshot() == second_r.stats_snapshot()
        assert first_c.metrics.commits == second_c.metrics.commits

    def test_clone_dual_run_identical(self):
        first_c, first_r, _ = run_scenario(clone=True)
        second_c, second_r, _ = run_scenario(clone=True)
        assert first_c.state_fingerprint() == second_c.state_fingerprint()
        assert first_r.stats_snapshot() == second_r.stats_snapshot()


class TestCloneMode:
    def test_clones_served_from_secondary_holders(self):
        cluster, router, _ = run_scenario(clone=True)
        assert router.cloned_keys > 0
        assert cluster.metrics.cloned_reads == router.cloned_keys
        # Cloning changes scheduling, never state.
        baseline, _, _ = run_scenario(clone=False)
        assert cluster.state_fingerprint() == baseline.state_fingerprint()
