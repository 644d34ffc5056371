"""The ``serving`` API kind: journaled runs, verified before returning."""

import pytest

from repro.api import ExperimentSpec, PRESETS, run_experiment
from repro.serve import experiment


@pytest.fixture(scope="module", autouse=True)
def small_keyspace():
    """500 keys under 4,000 arrivals a second: a contended smoke run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "NUM_KEYS", 500)
        patch.setattr(experiment, "RATE_PER_S", 4_000.0)
        yield


def make_spec(**overrides):
    base = dict(
        kind="serving",
        strategies=("calvin",),
        seed=11,
        duration_s=0.25,
        jobs=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def result():
    (run,) = run_experiment(make_spec())
    return run


class TestServingKind:
    def test_smoke_commits_and_verifies(self, result):
        assert result.strategy == "calvin"
        assert result.commits > 0
        assert result.latency_p99_us > 0
        assert result.extras["serve_ticks"] == 50
        assert result.extras["journal_verified"] is True

    def test_elastic_resize_during_run(self):
        params = {
            "initial_nodes": 3,
            "resizes": ((100_000.0, "add", 3),),
        }
        (run,) = run_experiment(make_spec(params=params))
        assert run.extras["resizes"] == 1
        assert run.extras["active_nodes"] == [0, 1, 2, 3]
        assert run.extras["journal_verified"] is True

    def test_dual_run_determinism(self, result):
        (again,) = run_experiment(make_spec())
        assert again.extras["fingerprint"] == result.extras["fingerprint"]
        assert again.extras["digest"] == result.extras["digest"]

    def test_preset_exists(self):
        spec = PRESETS["serving"]()
        assert spec.kind == "serving"
        assert "calvin" in spec.strategies

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError, match="serving"):
            run_experiment(make_spec(params={"bogus": 1}))

    def test_trace_rejected(self):
        with pytest.raises(ValueError, match="serving"):
            run_experiment(make_spec(trace="/tmp/nope.jsonl"))
