"""Acceptance test for the forecast-robustness experiment.

One small-scale ``forecast_robustness`` run at heavy injected forecast
error (severity 0.9), with and without graceful fallback.  The claims
under test are the PR's acceptance criteria: fallback bounds the damage
(lower distributed-txn ratio and fewer speculative moves than the
no-fallback ablation), the episode engages *and* recovers, the
in-flight prescient migration is cancelled through the session state
machine, and the whole episode is visible in the trace and the
harness extras.

The run is deliberately heavier than a unit test (~2 simulated seconds
across two clusters); everything is asserted off one shared module
fixture so the clusters are only built once.
"""

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.bench import figures
from repro.bench.presets import GOOGLE_BENCH
from repro.obs.tracer import Tracer

ERROR_LEVEL = 0.9


@pytest.fixture(scope="module")
def robustness():
    tracer = Tracer(preset="forecast-robustness-test", seed=7)
    spec = ExperimentSpec(
        kind="forecast_robustness",
        strategies=("hermes-forecast", "hermes-forecast-nofallback"),
        seed=7,
        duration_s=0.8,
        jobs=1,
        keep_cluster=True,
        trace=tracer,
        params={"error_levels": (ERROR_LEVEL,)},
    )
    # Four nodes, 4,000 keys and a lighter offered load.
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(GOOGLE_BENCH, "num_nodes", 4)
        patch.setitem(GOOGLE_BENCH, "num_keys", 4_000)
        patch.setattr(figures, "GOOGLE_RATE_SCALE", 2_000.0)
        results = run_experiment(spec)
    fallback, ablation = results[ERROR_LEVEL]
    return fallback, ablation, tracer


class TestFallbackBoundsDamage:
    def test_result_shape(self, robustness):
        fallback, ablation, _tracer = robustness
        assert fallback.strategy == "hermes-forecast"
        assert ablation.strategy == "hermes-forecast-nofallback"
        assert fallback.extras["error_level"] == ERROR_LEVEL
        assert fallback.commits > 0 and ablation.commits > 0

    def test_distributed_txn_ratio_bounded(self, robustness):
        fallback, ablation, _tracer = robustness
        fb = fallback.extras["distributed_txn_ratio"]
        ab = ablation.extras["distributed_txn_ratio"]
        assert 0.0 < fb < 1.0
        # Routing on a corrupted forecast without ever falling back must
        # do measurably worse than detecting and falling back.
        assert fb < ab

    def test_fallback_cuts_speculative_moves(self, robustness):
        fallback, ablation, _tracer = robustness
        fb_moves = fallback.extras["router_stats"]["moves_planned"]
        ab_moves = ablation.extras["router_stats"]["moves_planned"]
        assert fb_moves < ab_moves

    def test_episode_engages_and_recovers(self, robustness):
        fallback, ablation, _tracer = robustness
        stats = fallback.extras["router_stats"]
        assert stats["fallback_engagements"] >= 1
        assert stats["fallback_recoveries"] >= 1
        assert stats["epochs_fallback"] > 0
        assert stats["txns_fallback"] > 0
        # The ablation measures the same degraded forecast but never
        # transitions.
        ab_stats = ablation.extras["router_stats"]
        assert ab_stats["fallback_engagements"] == 0
        assert ab_stats["epochs_fallback"] == 0
        assert ab_stats["error_ewma"] > 0.0

    def test_migration_cancelled_through_state_machine(self, robustness):
        fallback, _ablation, _tracer = robustness
        coordinator = fallback.extras["attached"]
        (session,) = coordinator.controller.sessions
        assert session.state.value == "cancelled"
        assert session.chunks_committed < len(session.plan.chunks)
        assert coordinator.cancelled_chunks > 0

    def test_episode_traced(self, robustness):
        _fallback, _ablation, tracer = robustness
        spans = [
            e for e in tracer.events
            if e.get("name") == "forecast_fallback" and e.get("ph") == "X"
        ]
        assert len(spans) >= 1
        assert all(span["dur"] > 0 for span in spans)

    def test_harness_extras_complete(self, robustness):
        fallback, _ablation, _tracer = robustness
        extras = fallback.extras
        assert extras["ollp_exhausted"] == 0
        assert extras["ollp_exhausted_rate"] == 0.0
        assert extras["forecaster"] == "oracle"
        stats = extras["router_stats"]
        for key in (
            "batches", "txns", "moves_planned", "epochs",
            "unpredicted_txns", "error_ewma",
            "fallback_distributed_ratio", "prescient_distributed_ratio",
        ):
            assert key in stats
