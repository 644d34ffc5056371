"""ForecastRouter tests: error metric, oracle fast path, mode routing."""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.types import Batch, Transaction, TxnKind
from repro.core.prescient import PrescientRouter
from repro.core.router import ClusterView, OwnershipView
from repro.engine.cluster import Cluster
from repro.forecast.detector import MispredictDetector
from repro.forecast.forecasters import OracleForecaster, predicted_txn
from repro.forecast.router import ForecastRouter, forecast_error
from repro.forecast.forecasters import Forecaster
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 300
NUM_NODES = 3


def rw(txn_id, reads, writes):
    return Transaction.read_write(txn_id, reads, writes)


def make_view():
    return ClusterView(
        range(NUM_NODES),
        OwnershipView(make_uniform_ranges(NUM_KEYS, NUM_NODES)),
    )


class TestForecastError:
    def test_identity_short_circuits_to_zero(self):
        batch = Batch(1, [rw(1, [5], [5])])
        assert forecast_error(batch, batch) == 0.0

    def test_exact_copy_scores_zero(self):
        real = Batch(1, [rw(1, [5, 6], [6]), rw(2, [100], [100])])
        copy = Batch(1, list(real.txns))
        assert forecast_error(real, copy) == 0.0

    def test_disjoint_footprints_score_one(self):
        real = Batch(1, [rw(1, [5, 6], [6])])
        predicted = Batch(1, [predicted_txn(real.txns[0], [200, 201])])
        assert forecast_error(real, predicted) == 1.0

    def test_missing_txn_scores_one(self):
        real = Batch(1, [rw(1, [5], [5]), rw(2, [6], [6])])
        predicted = Batch(1, [real.txns[0]])
        assert forecast_error(real, predicted) == 0.5

    def test_partial_overlap_is_jaccard_distance(self):
        real = Batch(1, [rw(1, [5, 6], [6])])
        predicted = Batch(1, [predicted_txn(real.txns[0], [6, 200])])
        # |{5,6} ∩ {6,200}| / |{5,6} ∪ {6,200}| = 1/3
        assert forecast_error(real, predicted) == 1.0 - 1.0 / 3.0

    def test_system_txns_excluded(self):
        system = Transaction(
            txn_id=9, read_set=frozenset([1]), write_set=frozenset([1]),
            kind=TxnKind.MIGRATION,
        )
        real = Batch(1, [system])
        predicted = Batch(1, [])
        assert forecast_error(real, predicted) == 0.0

    def test_aggregate_match_is_not_enough(self):
        """Two txns whose footprints are swapped keep the aggregate key
        histogram identical — the per-txn metric must still flag it."""
        a, b = rw(1, [5, 6], [6]), rw(2, [200, 201], [201])
        real = Batch(1, [a, b])
        predicted = Batch(1, [
            predicted_txn(a, [200, 201]), predicted_txn(b, [5, 6])
        ])
        assert forecast_error(real, predicted) == 1.0


class _ShortHorizon(Forecaster):
    """Oracle for even txn ids, omits odd ones (horizon truncation)."""

    name = "short-horizon"

    def predict(self, batch):
        return Batch(
            epoch=batch.epoch,
            txns=[t for t in batch if t.is_system() or t.txn_id % 2 == 0],
        )


class TestForecastRouting:
    def test_oracle_delegates_wholesale(self):
        view = make_view()
        router = ForecastRouter(OracleForecaster())
        batch = Batch(1, [rw(1, [5, 150], [150]), rw(2, [6], [6])])
        plan = router.route_batch(batch, view)
        expected = PrescientRouter().route_batch(batch, view)
        assert [p.masters for p in plan.plans] == [
            p.masters for p in expected.plans
        ]
        assert router.epochs_total == 1
        assert router.unpredicted_txns == 0
        assert router.error_sum == 0.0

    def test_unpredicted_txns_routed_reactively_and_counted(self):
        view = make_view()
        router = ForecastRouter(_ShortHorizon())
        batch = Batch(1, [rw(1, [5], [5]), rw(2, [150], [150])])
        plan = router.route_batch(batch, view)
        assert router.unpredicted_txns == 1
        # Every real transaction still gets a plan, in a valid order.
        assert sorted(p.txn.txn_id for p in plan.plans) == [1, 2]

    def test_fallback_mode_routes_multi_master(self):
        view = make_view()
        router = ForecastRouter(OracleForecaster())
        router.detector.engaged = True
        batch = Batch(1, [rw(1, [5, 150], [5, 150])])
        plan = router.route_batch(batch, view)
        assert router.epochs_fallback == 1
        # Reactive plan: one master per writer partition, no migrations.
        assert plan.plans[0].masters == (0, 1)
        assert plan.plans[0].migrations == ()

    def test_per_mode_distributed_counters(self):
        view = make_view()
        router = ForecastRouter(OracleForecaster())
        router.detector.engaged = True
        router.route_batch(Batch(1, [rw(1, [5, 150], [5, 150])]), view)
        assert router.txns_fallback == 1
        assert router.distributed_fallback == 1
        assert router.txns_prescient == 0
        router.detector.engaged = False
        router.route_batch(Batch(2, [rw(2, [6], [6])]), view)
        assert router.txns_prescient == 1
        assert router.distributed_prescient == 0

    def test_stats_snapshot_and_reset(self):
        view = make_view()
        router = ForecastRouter(_ShortHorizon())
        router.route_batch(Batch(1, [rw(1, [5], [5]), rw(2, [6], [6])]), view)
        stats = router.stats_snapshot()
        assert stats["epochs"] == 1
        assert stats["unpredicted_txns"] == 1
        assert stats["txns_prescient"] == 2
        router.reset_stats()
        stats = router.stats_snapshot()
        assert stats["epochs"] == 0
        assert stats["unpredicted_txns"] == 0
        assert stats["txns_prescient"] == 0
        assert stats["batches"] == 0

    def test_nofallback_never_transitions(self):
        view = make_view()
        detector = MispredictDetector(
            engage_threshold=0.4, recover_threshold=0.1,
            engage_epochs=1, recover_epochs=1, alpha=1.0,
        )
        router = ForecastRouter(
            _AlwaysWrong(), fallback_enabled=False, detector=detector
        )
        for epoch in range(5):
            router.route_batch(
                Batch(epoch, [rw(epoch * 10 + 1, [5], [5])]), view
            )
        assert not router.in_fallback
        assert router.fallback_engagements == 0
        # The EWMA still tracks quality for reporting.
        assert router.detector.ewma == 1.0


class _AlwaysWrong(Forecaster):
    """Predicts a disjoint footprint for every user transaction."""

    name = "always-wrong"

    def predict(self, batch):
        return Batch(
            epoch=batch.epoch,
            txns=[
                t if t.is_system() else predicted_txn(t, [299])
                for t in batch
            ],
        )


def run_cluster(router):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=NUM_NODES,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, NUM_NODES),
    )
    cluster.load_data(range(NUM_KEYS))
    # Cross-partition txns so prescient routing actually migrates.
    for i in range(40):
        a = (i * 7) % NUM_KEYS
        b = (a + 137) % NUM_KEYS
        cluster.submit(
            Transaction.read_write(cluster.next_txn_id(), [a, b], [b]),
        )
    cluster.run_until_quiescent(60_000_000)
    return cluster


class TestOracleByteIdentity:
    def test_oracle_forecast_matches_plain_prescient(self):
        plain = run_cluster(PrescientRouter())
        forecast = run_cluster(ForecastRouter(OracleForecaster()))
        assert (
            forecast.state_fingerprint() == plain.state_fingerprint()
        )
        assert forecast.metrics.commits == plain.metrics.commits
