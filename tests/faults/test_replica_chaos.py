"""Replica-holder outage chaos: sole valid holder dies mid-epoch.

One locality (masters on node 0) leans on a replica of node 2's hot
range; node 0 is the *only* valid holder.  A ReplicaOutageFault then
knocks that holder's side-store out mid-run.  Required behaviour:

* reads fall back to the primary deterministically — the run completes
  with every record in place and the *same* state fingerprint as the
  undisturbed run (replica serves never change state, so neither can
  losing them);
* the episode is windowed — serves resume once the outage clears;
* replaying the faulted run is bit-identical (fingerprint and full
  router stats), i.e. the fault path itself is deterministic.
"""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.engine.cluster import Cluster
from repro.faults import FaultInjector, FaultPlan, ReplicaOutageFault
from repro.forecast import OracleForecaster
from repro.replication import (
    ReplicationConfig,
    ReplicationCoordinator,
    ReplicationRouter,
)
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4  # node n owns [n*100, (n+1)*100)
EPOCH_US = 5_000.0
HOT_LO = 250  # hot read range, owned by node 2; replicated onto node 0
END_US = 150_000.0
OUTAGE = ReplicaOutageFault(
    start_us=60_000.0, duration_us=50_000.0, node=0
)


def run_scenario(with_outage: bool):
    router = ReplicationRouter(
        OracleForecaster(),
        ReplicationConfig(
            key_lo=0, key_hi=NUM_KEYS, range_records=50,
            provision_interval=2,
        ),
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
    )
    cluster.load_data(range(NUM_KEYS))
    coordinator = ReplicationCoordinator(cluster, router)
    # Pre-mint user txn ids: install-chunk ids then stay out of the
    # user range, so written values (which mix in txn ids) cannot shift
    # when the outage re-times provision sessions.
    cluster.set_txn_id_floor(1_000_000)

    injector = None
    if with_outage:
        injector = FaultInjector(
            cluster,
            FaultPlan(events=(OUTAGE,)),
            DeterministicRNG(13, "replica-chaos"),
        )
        injector.install()

    rng = DeterministicRNG(7, "load")
    user_ids = iter(range(1, 1_000_000))

    def submit_burst():
        now = cluster.kernel.now
        if now > END_US:
            return
        for _ in range(6):
            local = rng.randint(0, 99)
            hot = HOT_LO + rng.randint(0, 49)
            cluster.submit(Transaction.read_only(
                next(user_ids), [local, hot]
            ))
        victim = 300 + rng.randint(0, 99)
        cluster.submit(Transaction.read_write(
            next(user_ids), [victim], [victim]
        ))
        cluster.kernel.call_later(EPOCH_US, submit_burst)

    submit_burst()
    cluster.run_until_quiescent(60_000_000)
    return cluster, router, coordinator, injector


class TestSoleHolderOutage:
    def setup_method(self):
        (
            self.cluster, self.router, self.coordinator, self.injector
        ) = run_scenario(with_outage=True)

    def test_holder_was_sole_and_outage_engaged(self):
        assert self.injector.activations == 1
        assert self.injector.deactivations == 1
        sink = self.router.replica_fault_sink
        assert sink.activations == 1
        assert sink.deactivations == 1
        # Post-run the window is closed and the holder is valid again.
        holders = self.router.directory.valid_holders(
            HOT_LO // 50, range(NUM_NODES)
        )
        assert holders == [0]
        assert self.router.directory.outages == frozenset()

    def test_run_completes_with_primary_fallback(self):
        assert self.cluster.inflight == 0
        assert self.cluster.metrics.commits > 0
        assert self.cluster.total_records() == NUM_KEYS
        # Replicas still served outside the window...
        assert self.router.replica_keys > 0
        # ...but strictly fewer than the undisturbed run: every read in
        # the window fell back to the primary.
        baseline_c, baseline_r, _, _ = run_scenario(with_outage=False)
        assert baseline_r.replica_keys > self.router.replica_keys

    def test_state_identical_to_undisturbed_run(self):
        # Losing replica serves changes routing, never committed state.
        baseline_c, _, _, _ = run_scenario(with_outage=False)
        assert (
            self.cluster.state_fingerprint()
            == baseline_c.state_fingerprint()
        )
        assert (
            self.cluster.metrics.commits == baseline_c.metrics.commits
        )

    def test_faulted_replay_is_deterministic(self):
        replay_c, replay_r, _, _ = run_scenario(with_outage=True)
        assert (
            replay_c.state_fingerprint()
            == self.cluster.state_fingerprint()
        )
        assert replay_r.stats_snapshot() == self.router.stats_snapshot()
