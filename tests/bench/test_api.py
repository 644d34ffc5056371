"""The unified experiment facade (repro.api)."""

import pytest

from repro.api import (
    PRESETS,
    VALID_PARAMS,
    ExperimentSpec,
    preset_spec,
    run_experiment,
)
from repro.bench import figures
from repro.obs.tracer import Tracer


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(ExperimentSpec(kind="nope", strategies=("calvin",)))

    def test_empty_strategies(self):
        with pytest.raises(ValueError, match="at least one"):
            run_experiment(ExperimentSpec(kind="tpcc"))

    def test_unknown_params_rejected(self):
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",),
                              params={"hot_fracton": 0.9})
        with pytest.raises(TypeError, match="hot_fracton"):
            run_experiment(spec)

    def test_trace_requires_serial(self):
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin", "tpart"),
                              trace=Tracer(), jobs=2)
        with pytest.raises(ValueError, match="jobs=1"):
            run_experiment(spec)

    def test_unknown_replication_key_suggests_close_match(self):
        spec = preset_spec("replication", strategies=("hermes-replica",),
                           duration_s=0.1)
        spec = spec.with_overrides(params={
            **spec.params, "replication": {"provision_intervall": 2},
        })
        with pytest.raises(TypeError, match="did you mean "
                           "'provision_interval' instead of "
                           "'provision_intervall'"):
            run_experiment(spec)

    def test_unknown_params_suggest_close_match(self):
        spec = ExperimentSpec(kind="multitenant", strategies=("calvin",),
                              params={"partitioner_factoryy": None})
        with pytest.raises(TypeError, match="did you mean "
                           "'partitioner_factory'"):
            run_experiment(spec)

    def test_unknown_scale_rejected(self):
        spec = ExperimentSpec(kind="multitenant", strategies=("calvin",),
                              scale="4b")
        with pytest.raises(ValueError, match="unknown scale '4b'"):
            run_experiment(spec)

    def test_scale_unsupported_kind_rejected(self):
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",),
                              scale="2m")
        with pytest.raises(ValueError, match="does not support the scale"):
            run_experiment(spec)

    def test_sweep_without_points_names_kind_and_field(self):
        spec = ExperimentSpec(kind="tpcc_sweep", strategies=("calvin",))
        with pytest.raises(ValueError, match="'tpcc_sweep' requires "
                           r"params\['hot_fractions'\]"):
            run_experiment(spec)

    def test_sweep_rejects_keep_cluster(self):
        spec = ExperimentSpec(kind="tpcc_sweep", strategies=("calvin",),
                              keep_cluster=True,
                              params={"hot_fractions": (0.0,)})
        with pytest.raises(ValueError, match="'tpcc_sweep' does not "
                           "support keep_cluster="):
            run_experiment(spec)

    def test_serving_rejects_keep_cluster(self):
        spec = ExperimentSpec(kind="serving", strategies=("calvin",),
                              keep_cluster=True)
        with pytest.raises(ValueError, match="'serving' does not "
                           "support keep_cluster="):
            run_experiment(spec)

    @pytest.mark.parametrize("field", ["warmup_us", "window_us"])
    def test_serving_rejects_warmup_and_window(self, field):
        # Serving has no warm-up phase and no stats window: the knob is
        # neither a spec field nor a serving param, so either spelling
        # fails loudly instead of being silently ignored.
        with pytest.raises(TypeError, match=field):
            ExperimentSpec(kind="serving", strategies=("calvin",),
                           **{field: 1_000.0})
        spec = ExperimentSpec(kind="serving", strategies=("calvin",),
                              params={field: 1_000.0})
        with pytest.raises(TypeError, match="unknown params for kind "
                           f"'serving': \\['{field}'\\]"):
            run_experiment(spec)

    def test_valid_params_are_the_workers_keywords(self):
        # The did-you-mean set is read off the worker signatures, so a
        # key the table admits is a key the worker binds — and the keys
        # themselves are API: pin them.
        assert {k: sorted(v) for k, v in VALID_PARAMS.items()} == {
            "google": ["rate_scale", "schism_periods", "ycsb_overrides"],
            "tpcc": ["hot_fraction"],
            "tpcc_sweep": ["hot_fractions"],
            "multitenant": ["config", "partitioner_factory"],
            "scaleout": [],
            "forecast_robustness": ["error_levels", "forecaster"],
            "replication": ["replication", "schism_periods",
                            "ycsb_overrides"],
            "serving": ["initial_nodes", "resizes"],
            "straggler_clone": [],
        }

    def test_with_overrides_copies(self):
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",))
        other = spec.with_overrides(seed=11)
        assert other.seed == 11 and spec.seed == 7
        assert other.strategies == spec.strategies


class TestDelegation:
    def test_trace_rides_along(self, monkeypatch):
        monkeypatch.setattr(figures, "TPCC_NUM_NODES", 4)
        monkeypatch.setattr(figures, "TPCC_CLIENTS", 40)
        tracer = Tracer(run="api-test")
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",),
                              trace=tracer, duration_s=0.2)
        (traced,) = run_experiment(spec)
        (plain,) = run_experiment(spec.with_overrides(trace=None))
        assert traced.extras["tracer"] is tracer
        assert len(tracer) > 0
        # Tracing must not perturb the simulation.
        assert traced.commits == plain.commits
        assert traced.mean_latency_us == plain.mean_latency_us


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESETS:
            spec = preset_spec(name)
            assert spec.strategies, name
            assert spec.kind in ("google", "tpcc", "tpcc_sweep",
                                 "multitenant", "scaleout",
                                 "forecast_robustness",
                                 "replication", "serving",
                                 "straggler_clone"), name

    def test_scale_preset_rides_the_scale_axis(self):
        spec = preset_spec("fig12_scale")
        assert spec.kind == "multitenant"
        assert spec.scale == "2m"

    def test_override(self):
        spec = preset_spec("fig07", seed=1, strategies=("hermes",))
        assert spec.seed == 1
        assert spec.strategies == ("hermes",)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_spec("fig99")
