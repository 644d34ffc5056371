"""Forecast-fault injection: plan validation, distortion, windowing."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.errors import FaultInjectionError
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.faults.forecast import FaultyForecaster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FORECAST_FAULT_KINDS, FaultPlan, ForecastFault
from repro.forecast.forecasters import OracleForecaster
from repro.forecast.router import ForecastRouter
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400


def fault(kind, severity=0.5, start_us=0.0, duration_us=1_000.0):
    return ForecastFault(
        start_us=start_us, duration_us=duration_us,
        kind=kind, severity=severity,
    )


def make_batch(epoch, n=10):
    txns = []
    for i in range(n):
        a = (epoch * 31 + i * 7) % NUM_KEYS
        txns.append(
            Transaction.read_write(epoch * 100 + i, [a, (a + 1) % NUM_KEYS],
                                   [a])
        )
    return Batch(epoch=epoch, txns=txns)


def make_faulty(seed=11):
    return FaultyForecaster(
        OracleForecaster(),
        DeterministicRNG(seed, "faulty"),
        key_universe=range(NUM_KEYS),
    )


class TestForecastFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            fault("clairvoyance_loss")

    def test_severity_bounds(self):
        with pytest.raises(FaultInjectionError):
            fault("magnitude_error", severity=0.0)
        with pytest.raises(FaultInjectionError):
            fault("magnitude_error", severity=1.5)
        assert fault("magnitude_error", severity=1.0).severity == 1.0

    def test_window_must_be_positive(self):
        with pytest.raises(FaultInjectionError):
            fault("magnitude_error", start_us=-1.0)
        with pytest.raises(FaultInjectionError):
            fault("magnitude_error", duration_us=0.0)

    def test_all_kinds_constructible(self):
        for kind in FORECAST_FAULT_KINDS:
            assert fault(kind).kind == kind


class TestTransparency:
    def test_no_active_window_is_identity(self):
        forecaster = make_faulty()
        batch = make_batch(0)
        assert forecaster.predict(batch) is batch

    def test_window_close_restores_identity(self):
        forecaster = make_faulty()
        window = fault("magnitude_error", severity=0.9)
        forecaster.activate(window)
        batch = make_batch(0)
        assert forecaster.predict(batch) is not batch
        forecaster.deactivate(window)
        assert forecaster.predict(batch) is batch
        assert forecaster.activations == 1
        assert forecaster.deactivations == 1

    def test_deactivate_matches_by_identity(self):
        forecaster = make_faulty()
        a = fault("magnitude_error", severity=0.9)
        twin = fault("magnitude_error", severity=0.9)
        forecaster.activate(a)
        forecaster.deactivate(twin)  # equal value, different object
        assert forecaster.active == [a]


class TestDistortions:
    def test_horizon_truncation_drops_tail(self):
        forecaster = make_faulty()
        forecaster.activate(fault("horizon_truncation", severity=0.3))
        batch = make_batch(0, n=10)
        predicted = forecaster.predict(batch)
        assert [t.txn_id for t in predicted] == [
            t.txn_id for t in batch.txns[:7]
        ]

    def test_magnitude_error_corrupts_within_universe(self):
        forecaster = make_faulty()
        forecaster.activate(fault("magnitude_error", severity=1.0))
        batch = make_batch(0, n=10)
        predicted = forecaster.predict(batch)
        assert [t.txn_id for t in predicted] == [t.txn_id for t in batch]
        corrupted = sum(
            1 for real, pred in zip(batch, predicted)
            if pred.full_set != real.full_set
        )
        assert corrupted > 0
        for pred in predicted:
            assert pred.full_set <= set(range(NUM_KEYS))

    def test_spike_dropout_only_touches_repeated_keys(self):
        forecaster = make_faulty()
        forecaster.activate(fault("spike_dropout", severity=1.0))
        # Keys 0/1 are the spike (every txn hits them); key 100+i is
        # unique per txn and must survive corruption.
        txns = [
            Transaction.read_write(i, [0, 1, 100 + i], [0])
            for i in range(6)
        ]
        batch = Batch(epoch=0, txns=txns)
        predicted = forecaster.predict(batch)
        for i, pred in enumerate(predicted):
            assert 100 + i in pred.full_set

    def test_stale_window_replays_old_footprints(self):
        forecaster = make_faulty()
        old = make_batch(0)
        for epoch in range(1, 4):
            forecaster.observe(make_batch(epoch))
        forecaster.observe(old)  # most recent history entry
        forecaster.activate(fault("stale_window", severity=0.1))  # lag 1
        current = make_batch(9)
        predicted = forecaster.predict(current)
        old_keys = set()
        for txn in old:
            old_keys |= txn.full_set
        for pred in predicted:
            assert pred.full_set <= old_keys

    def test_distortion_is_deterministic(self):
        outputs = []
        for _ in range(2):
            forecaster = make_faulty(seed=23)
            forecaster.activate(fault("magnitude_error", severity=0.7))
            predicted = forecaster.predict(make_batch(5))
            outputs.append(
                [tuple(t.ordered_keys) for t in predicted]
            )
        assert outputs[0] == outputs[1]


def build_cluster(router):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=4,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, 4),
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


class TestInjectorWindows:
    def plan(self):
        return FaultPlan(events=(
            fault("magnitude_error", severity=0.8,
                  start_us=1_000.0, duration_us=2_000.0),
        ))

    def test_window_opens_and_closes_on_sink(self):
        router = ForecastRouter(make_faulty())
        cluster = build_cluster(router)
        injector = FaultInjector(
            cluster, self.plan(), DeterministicRNG(5, "inj")
        )
        injector.install()
        sink = router.forecast_fault_sink
        cluster.run_until(500.0)
        assert sink.active == []
        cluster.run_until(2_000.0)
        assert len(sink.active) == 1
        cluster.run_until(4_000.0)
        assert sink.active == []
        assert sink.activations == 1
        assert sink.deactivations == 1

    def test_forecastless_router_ignores_window(self):
        cluster = build_cluster(CalvinRouter())
        injector = FaultInjector(
            cluster, self.plan(), DeterministicRNG(5, "inj")
        )
        injector.install()
        cluster.run_until(4_000.0)  # must not raise
        assert injector.activations == 1
        assert injector.deactivations == 1


class TestRandomPlans:
    def test_default_plans_never_contain_forecast_faults(self):
        for seed in range(10):
            plan = FaultPlan.random(
                DeterministicRNG(seed, "plan"), num_nodes=4,
                horizon_us=1_000_000.0,
            )
            assert not any(
                isinstance(e, ForecastFault) for e in plan.events
            )

    def test_knob_off_preserves_existing_draw_sequences(self):
        for seed in range(10):
            base = FaultPlan.random(
                DeterministicRNG(seed, "plan"), num_nodes=4,
                horizon_us=1_000_000.0,
            )
            explicit = FaultPlan.random(
                DeterministicRNG(seed, "plan"), num_nodes=4,
                horizon_us=1_000_000.0, forecast_probability=0.0,
            )
            assert explicit == base

    def test_knob_on_appends_valid_forecast_faults(self):
        hits = 0
        for seed in range(10):
            plan = FaultPlan.random(
                DeterministicRNG(seed, "plan"), num_nodes=4,
                horizon_us=1_000_000.0, forecast_probability=1.0,
            )
            plan.validate(4)
            forecast_events = [
                e for e in plan.events if isinstance(e, ForecastFault)
            ]
            hits += len(forecast_events)
            for event in forecast_events:
                assert event.kind in FORECAST_FAULT_KINDS
                assert 0.0 < event.severity <= 1.0
        assert hits == 10
