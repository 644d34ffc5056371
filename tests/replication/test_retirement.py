"""Budget-driven replica retirement: the once-dead ``retire`` path.

Regression for "``retire`` exists but nothing calls it" (DESIGN §16):
with ``ReplicationConfig.side_store_budget`` set, the provisioner
must name cold holders once a node's side-store exceeds the budget, the
directory must stop serving them, and the coordinator's fenced drop
must physically free the bytes.  Every test here fails on the pre-PR
code — ``side_store_budget`` did not exist and nothing invoked
``ReplicaDirectory.retire``.
"""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction
from repro.engine.cluster import Cluster
from repro.forecast import OracleForecaster
from repro.replication import (
    ReplicaDirectory,
    ReplicaProvisioner,
    ReplicationConfig,
    ReplicationCoordinator,
    ReplicationRouter,
)
from repro.storage.partitioning import make_uniform_ranges
from repro.storage.store import RECORD_OBJECT_BYTES

NUM_KEYS = 400
NUM_NODES = 4  # node n owns [n*100, (n+1)*100)
RANGE_RECORDS = 50
EPOCH_US = 5_000.0
PHASE_US = 60_000.0  # demand shifts from range 4 to range 6 here
END_US = 150_000.0
ONE_RANGE_BYTES = RANGE_RECORDS * RECORD_OBJECT_BYTES


def make_view():
    from repro.core.router import ClusterView, OwnershipView

    ownership = OwnershipView(make_uniform_ranges(NUM_KEYS, NUM_NODES))
    return ClusterView(range(NUM_NODES), ownership)


def make_provisioner(**overrides) -> ReplicaProvisioner:
    params = dict(
        range_records=RANGE_RECORDS, max_ranges_per_cycle=4,
        key_lo=0, key_hi=NUM_KEYS,
    )
    params.update(overrides)
    return ReplicaProvisioner(**params)


def read_only(txn_id, keys):
    return Transaction.read_only(txn_id, keys)


class TestPlanRetirements:
    def test_no_budget_never_retires(self):
        provisioner = make_provisioner()
        directory = ReplicaDirectory(RANGE_RECORDS)
        for range_id in range(6):
            directory.install(range_id, 0, epoch=1)
        assert provisioner.plan_retirements(directory) == []

    def test_under_budget_node_untouched(self):
        provisioner = make_provisioner(
            side_store_budget=2 * ONE_RANGE_BYTES
        )
        directory = ReplicaDirectory(RANGE_RECORDS)
        directory.install(4, 0, epoch=1)
        directory.install(6, 0, epoch=2)
        assert provisioner.plan_retirements(directory) == []

    def test_least_recently_demanded_retired_first(self):
        provisioner = make_provisioner(side_store_budget=ONE_RANGE_BYTES)
        view = make_view()
        directory = ReplicaDirectory(RANGE_RECORDS)
        # Cycle 1 sees demand for range 4 (keys 200-249, owner node 2),
        # cycle 2 for range 6 (keys 300-349, owner node 3) -- both
        # mastered at node 0.
        provisioner.plan(
            Batch(epoch=0, txns=[read_only(1, [10, 210])]),
            view, directory,
        )
        directory.install(4, 0, epoch=1)
        provisioner.plan(
            Batch(epoch=2, txns=[read_only(2, [10, 310])]),
            view, directory,
        )
        directory.install(6, 0, epoch=3)
        # Over budget by exactly one range: the colder one (4) goes.
        assert provisioner.plan_retirements(directory) == [(4, 0)]
        directory.retire(4, 0)
        assert directory.retires_total == 1
        # Back under budget: nothing further to retire.
        assert provisioner.plan_retirements(directory) == []

    def test_stale_copies_retired_before_valid_ones(self):
        provisioner = make_provisioner(side_store_budget=ONE_RANGE_BYTES)
        view = make_view()
        directory = ReplicaDirectory(RANGE_RECORDS)
        # One cycle demands both ranges: same demand recency.
        provisioner.plan(
            Batch(epoch=0, txns=[
                read_only(1, [10, 210]), read_only(2, [20, 310]),
            ]),
            view, directory,
        )
        directory.install(4, 0, epoch=5)
        directory.install(6, 0, epoch=5)
        directory.invalidate(6, epoch=7)  # range 6's copy is now stale
        assert provisioner.plan_retirements(directory) == [(6, 0)]

    def test_counters_track_planned_retirements(self):
        provisioner = make_provisioner(side_store_budget=ONE_RANGE_BYTES)
        directory = ReplicaDirectory(RANGE_RECORDS)
        directory.install(0, 1, epoch=1)
        directory.install(2, 1, epoch=2)
        directory.install(4, 1, epoch=3)
        retired = provisioner.plan_retirements(directory)
        assert len(retired) == 2
        assert provisioner.retire_cycles == 1
        assert provisioner.ranges_retired == 2


def build_cluster(budget):
    router = ReplicationRouter(
        OracleForecaster(),
        ReplicationConfig(
            key_lo=0, key_hi=NUM_KEYS, range_records=RANGE_RECORDS,
            provision_interval=2, max_ranges_per_cycle=4,
            side_store_budget=budget,
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


def run_scenario(budget):
    """Two-phase hot-range shift at a single consumer (node 0).

    Phase 1 reads keys 200-249 (range 4, node 2); phase 2 abandons them
    for keys 300-349 (range 6, node 3).  With a one-range budget the
    phase-2 install pushes node 0 over budget and the cold range-4 copy
    must be retired.
    """
    cluster, router, coordinator = build_cluster(budget)
    rng = DeterministicRNG(7, "load")

    def submit_burst():
        now = cluster.kernel.now
        if now > END_US:
            return
        hot_lo = 200 if now < PHASE_US else 300
        for _ in range(3):
            local = rng.randint(0, 99)
            hot = hot_lo + rng.randint(0, RANGE_RECORDS - 1)
            cluster.submit(Transaction.read_only(
                cluster.next_txn_id(), [local, hot]
            ))
        cluster.kernel.call_later(EPOCH_US, submit_burst)

    submit_burst()
    cluster.run_until_quiescent(60_000_000)
    return cluster, router, coordinator


class TestRetirementEndToEnd:
    def setup_method(self):
        self.cluster, self.router, self.coordinator = run_scenario(
            budget=ONE_RANGE_BYTES
        )

    def test_cold_holder_retired_and_stops_serving(self):
        directory = self.router.directory
        assert directory.retires_total >= 1
        # The retired pair is out of the directory entirely: the router
        # can never choose node 0 for range 4 again.
        assert not directory.is_holder(4, 0)
        assert 0 not in directory.valid_holders(4, range(NUM_NODES))
        # The recently demanded range survives the budget squeeze.
        assert directory.is_holder(6, 0)

    def test_retirement_frees_store_bytes(self):
        replicas = self.cluster.nodes[0].replicas
        # Both ranges were physically installed at some point...
        assert replicas.records_peak > RANGE_RECORDS
        # ...but the fenced drop brought the node back under budget.
        assert replicas.memory_bytes() <= ONE_RANGE_BYTES
        assert all(key not in replicas for key in range(200, 250))
        # The surviving copy is the recently demanded one.
        assert any(key in replicas for key in range(300, 350))

    def test_drop_counters_and_stats_plumbing(self):
        registry = self.cluster.metrics.registry
        (retires,) = registry.find("replica_retire_ranges_total")
        (dropped,) = registry.find("replica_retired_records_total")
        assert retires.value == self.router.directory.retires_total
        assert dropped.value >= RANGE_RECORDS
        snap = self.router.stats_snapshot()
        assert snap["replica_retire_cycles"] >= 1
        assert snap["replica_ranges_retired"] >= 1
        assert snap["replica_retires"] == retires.value

    def test_retirement_never_touches_primary_state(self):
        # Same workload without a budget: no retirement, and (because
        # demand never returns to range 4, so install plans match) the
        # primary stores converge to the identical fingerprint.
        baseline_c, baseline_r, _ = run_scenario(budget=None)
        assert baseline_r.directory.retires_total == 0
        assert baseline_c.nodes[0].replicas.memory_bytes() > ONE_RANGE_BYTES
        assert (
            self.cluster.state_fingerprint()
            == baseline_c.state_fingerprint()
        )
        assert self.cluster.total_records() == NUM_KEYS

    def test_deterministic_across_runs(self):
        second_c, second_r, _ = run_scenario(budget=ONE_RANGE_BYTES)
        assert (
            self.cluster.state_fingerprint()
            == second_c.state_fingerprint()
        )
        assert self.router.stats_snapshot() == second_r.stats_snapshot()
