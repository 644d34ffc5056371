"""The unified experiment facade (repro.api)."""

import pytest

from repro.api import (
    PRESETS,
    VALID_PARAMS,
    ExperimentSpec,
    preset_spec,
    run_experiment,
)
from repro.obs import Tracer

TINY_TPCC = dict(duration_s=0.2, params={"clients": 40, "num_nodes": 4})


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

    @pytest.mark.parametrize("field", ["warmup_us", "window_us"])
    def test_serving_rejects_warmup_and_window(self, field):
        spec = ExperimentSpec(kind="serving", strategies=("calvin",),
                              **{field: 1_000.0})
        with pytest.raises(ValueError, match="'serving' does not "
                           f"support {field}="):
            run_experiment(spec)

    def test_valid_params_are_the_workers_keywords(self):
        # The did-you-mean set is read off the worker signatures, so a
        # key the table admits is a key the worker binds — and the keys
        # themselves are API: pin them.
        assert {k: sorted(v) for k, v in VALID_PARAMS.items()} == {
            "google": ["num_keys", "num_nodes", "rate_scale",
                       "schism_periods", "ycsb_overrides"],
            "tpcc": ["clients", "hot_fraction", "num_nodes"],
            "tpcc_sweep": ["clients", "hot_fractions", "num_nodes"],
            "multitenant": ["clients", "config", "partitioner_factory"],
            "scaleout": ["clients", "event_at_s", "records_per_tenant"],
            "forecast_robustness": ["detector", "error_levels", "forecaster",
                                    "num_keys", "num_nodes", "rate_scale"],
            "replication": ["forecaster", "num_keys", "num_nodes",
                            "rate_scale", "replication", "schism_periods",
                            "ycsb_overrides"],
            "serving": ["epoch_us", "initial_nodes", "num_keys", "num_nodes",
                        "rate_per_s", "resizes", "rw_ratio", "verify"],
            "straggler_clone": ["hot_records", "num_keys", "rate_per_s",
                                "replication", "slowdown"],
        }

    def test_with_overrides_copies(self):
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",))
        other = spec.with_overrides(seed=11)
        assert other.seed == 11 and spec.seed == 7
        assert other.strategies == spec.strategies


class TestDelegation:
    def test_trace_rides_along(self):
        tracer = Tracer(run="api-test")
        spec = ExperimentSpec(kind="tpcc", strategies=("calvin",),
                              trace=tracer, **TINY_TPCC)
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
