"""End-to-end fallback: fault window -> engage -> cancel -> recover.

One live-cluster scenario exercised from the coordinator down: a
forecast-fault window degrades an oracle forecaster mid-run while a
prescient cold migration is in flight.  The detector must engage
fallback (cancelling the migration through the session state machine),
then recover once the window closes — and the whole episode must land
in the trace, the metrics registry, and the router counters.
"""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.engine.cluster import Cluster
from repro.faults.forecast import FaultyForecaster
from repro.faults.plan import ForecastFault
from repro.forecast.coordinator import FallbackCoordinator
from repro.forecast.forecasters import OracleForecaster
from repro.forecast.router import ForecastRouter
from repro.obs.tracer import Tracer
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4
EPOCH_US = 5_000.0
FAULT = ForecastFault(
    start_us=20_000.0, duration_us=40_000.0,
    kind="magnitude_error", severity=0.95,
)


def cold_plan():
    """Node 0's lower half -> node 1, in 5 paced chunks."""
    chunks = []
    for lo in range(0, 50, 10):
        keys = tuple(range(lo, lo + 10))
        chunks.append(
            ChunkMigration(
                src=0, dst=1, keys=keys, range_reassign=(lo, lo + 10)
            )
        )
    return ColdMigrationPlan(tuple(chunks))


def run_scenario():
    tracer = Tracer(preset="forecast-fallback", seed=7)
    rng = DeterministicRNG(7, "fallback-test")
    forecaster = FaultyForecaster(
        OracleForecaster(), rng, key_universe=range(NUM_KEYS)
    )
    router = ForecastRouter(forecaster)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=NUM_NODES,
            engine=EngineConfig(
                epoch_us=EPOCH_US,
                workers_per_node=2,
                migration_chunk_records=10,
                migration_chunk_gap_us=20_000.0,
            ),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, NUM_NODES),
        tracer=tracer,
    )
    cluster.load_data(range(NUM_KEYS))
    coordinator = FallbackCoordinator(cluster, router)

    # Closed-ish loop: a burst of cross-partition user txns every epoch
    # so the detector sees forecast error each round.
    workload_rng = DeterministicRNG(7, "load")

    def submit_burst():
        now = cluster.kernel.now
        if now > 140_000.0:
            return
        for _ in range(4):
            a = workload_rng.randint(0, NUM_KEYS - 1)
            b = (a + 137) % NUM_KEYS
            cluster.submit(
                Transaction.read_write(cluster.next_txn_id(), [a, b], [b])
            )
        cluster.kernel.call_later(EPOCH_US, submit_burst)

    submit_burst()

    # A prescient migration in flight when the fault window opens...
    cluster.kernel.call_later(
        10_000.0, lambda: coordinator.start_migration(cold_plan())
    )
    # ...and the forecast degrades from 20ms to 60ms.
    sink = router.forecast_fault_sink
    cluster.kernel.call_later(FAULT.start_us, sink.activate, FAULT)
    cluster.kernel.call_later(
        FAULT.start_us + FAULT.duration_us, sink.deactivate, FAULT
    )

    cluster.run_until_quiescent(60_000_000)
    return cluster, coordinator, tracer


class TestFallbackEpisode:
    def setup_method(self):
        self.cluster, self.coordinator, self.tracer = run_scenario()
        self.router = self.cluster.router

    def test_fallback_engages_and_recovers(self):
        assert self.router.fallback_engagements == 1
        assert self.router.fallback_recoveries == 1
        assert not self.router.in_fallback  # episode closed
        assert self.router.epochs_fallback > 0

    def test_migration_cancelled_through_state_machine(self):
        (session,) = self.coordinator.controller.sessions
        assert session.state.value == "cancelled"
        # Mid-flight: some chunks landed, the tail was abandoned.
        assert 0 < session.chunks_committed < 5
        assert not self.coordinator.controller.active

    def test_cancelled_tail_counted_in_registry(self):
        registry = self.cluster.metrics.registry
        (engagements,) = registry.find("forecast_fallback_engagements_total")
        (recoveries,) = registry.find("forecast_fallback_recoveries_total")
        (cancelled,) = registry.find("forecast_cancelled_chunks_total")
        assert engagements.value == 1
        assert recoveries.value == 1
        (session,) = self.coordinator.controller.sessions
        assert cancelled.value == len(session.plan.chunks) - (
            session.chunks_submitted
        )
        assert cancelled.value > 0

    def test_episode_traced_as_one_span(self):
        spans = [
            e for e in self.tracer.events
            if e.get("name") == "forecast_fallback" and e.get("ph") == "X"
        ]
        assert len(spans) == 1
        (span,) = spans
        assert span["cat"] == "forecast"
        assert span["dur"] > 0
        transitions = [
            e["name"] for e in self.tracer.events
            if e.get("cat") == "forecast" and e.get("ph") == "i"
        ]
        assert transitions.count("fallback_engaged") == 1
        assert transitions.count("fallback_recovered") == 1

    def test_error_samples_cover_the_run(self):
        samples = [
            e for e in self.tracer.events
            if e.get("cat") == "forecast"
            and e.get("name") == "forecast_error"
        ]
        assert len(samples) == self.router.epochs_total
        peak = max(s["args"]["error"] for s in samples)
        assert peak > 0.9  # the fault window really degraded forecasts
        assert samples[0]["args"]["error"] == 0.0  # clean before the window

    def test_no_records_lost(self):
        assert self.cluster.total_records() == NUM_KEYS

    def test_scenario_is_deterministic(self):
        again, coordinator, _tracer = run_scenario()
        assert (
            again.state_fingerprint() == self.cluster.state_fingerprint()
        )
        assert (
            again.router.stats_snapshot() == self.router.stats_snapshot()
        )
