"""Dual replay: every preset deterministic across repeat runs and two
``PYTHONHASHSEED`` values, and the injected hash-order bug caught and
localized — the validate-the-validator half of the detector."""

import pytest

from repro.api import PRESETS, ExperimentSpec, preset_spec
from repro.sanitize import replay
from repro.sanitize.replay import (
    INJECT_ENV,
    dual_replay,
    first_divergence,
    run_digest,
    run_digest_subprocess,
    spec_from_payload,
    spec_payload,
)


#: ``payload_digest(canonical_payload(run_experiment(preset)))`` at
#: ``REPRO_BENCH_SCALE=0.01``, recorded on the commit before the
#: experiment layer was merged into one (identical under
#: ``PYTHONHASHSEED`` 1 and 31337).  These are model results, not
#: kernel-event hexes: a refactor of the layers above ``run_workload``
#: must leave every one unchanged, while engine work that changes what
#: the model computes re-records them deliberately.
PRESET_RESULT_DIGESTS = {
    "fig02": "f403abd98fff55d7719fb15efe892bd1",
    "fig06a": "97482dda474ada7f565f0ba57db890cd",
    "fig06b": "cba2270e3c24c33e92c59fe8dd6a28c3",
    "fig07": "af3cbdfe0d77facf141098bd91d8816e",
    "fig11": "f8fb90722529a13a5afb6fc9ba4a0862",
    "fig12": "1a1604987bbbe060c64b4dd7c6e5a7d2",
    "fig12_scale": "b619a4f17a4e9f904294a596f9ff8f45",
    "fig14": "dee299e894d50c23d4daeb8757e39b95",
    "replication": "558085f3df5b88745a24c4c1086c7ec4",
    "robustness": "07a2d124a493ca4b17617e0d5f24f100",
    "serving": "8726760dc3e9a99909bf77782e5c681e",
    "straggler_clone": "2f6ed43a2fe2b85f9da790e8fccfc4c3",
}


def _tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(kind="multitenant", strategies=("calvin",), seed=11)
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(autouse=True)
def _small_runs(monkeypatch):
    """Downscale every run (inherited by the subprocess legs too)."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")


class TestSpecPayload:
    def test_round_trip(self):
        spec = preset_spec("fig06a", seed=3)
        back = spec_from_payload(spec_payload(spec))
        assert back.kind == spec.kind
        assert back.strategies == spec.strategies
        assert back.seed == spec.seed

    def test_scale_axis_round_trips(self):
        # Regression: dropping scale= here made the subprocess legs run
        # the *unscaled* preset — dual replay then compared two
        # different experiments instead of two replays of one.
        spec = preset_spec("fig12_scale")
        back = spec_from_payload(spec_payload(spec))
        assert back.scale == spec.scale == "2m"

    def test_rejects_non_json_params(self):
        spec = _tiny_spec(params={"cb": object()})
        with pytest.raises(ValueError, match="JSON-serializable"):
            spec_payload(spec)


class TestSubprocessLeg:
    def test_child_digest_matches_parent(self):
        spec = _tiny_spec()
        parent = run_digest(spec)
        child = run_digest_subprocess(spec, hashseed=99)
        assert child.combined == parent.combined
        assert child.events == parent.events
        assert child.result == parent.result


class TestDualReplay:
    def test_tiny_spec_is_deterministic(self):
        report = dual_replay(_tiny_spec(), hashseeds=(1, 2))
        assert report.ok, report.describe()
        assert len(set(report.digests.values())) == 1
        assert "DETERMINISTIC" in report.describe()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_is_deterministic(self, name):
        report = dual_replay(preset_spec(name), hashseeds=(1, 2))
        assert report.ok, f"{name}:\n{report.describe()}"
        # ok means all four legs agree, so one leg speaks for them all.
        assert report.results["run-a"] == PRESET_RESULT_DIGESTS[name]

    def test_every_preset_is_pinned(self):
        assert set(PRESET_RESULT_DIGESTS) == set(PRESETS)

    def test_result_digest_is_compared_across_legs(self, monkeypatch):
        # Same event stream, different returned numbers: a hash-order
        # dependence in metrics/extras code that scheduling never sees.
        def skewed_child(spec, *, hashseed, **_kwargs):
            run = run_digest(spec, label=f"hashseed-{hashseed}")
            run.result = "0" * 32
            return run

        monkeypatch.setattr(replay, "run_digest_subprocess", skewed_child)
        report = dual_replay(_tiny_spec(), hashseeds=(1,))
        assert not report.ok
        assert report.divergence is None
        assert "different result payload" in report.describe()


class TestInjectedBug:
    """``REPRO_SANITIZE_INJECT=set-iteration`` plants a genuine
    hash-order bug in the sequencer; the detector must catch it in the
    hash leg (it is invisible in-process) and localize the first
    divergent event."""

    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "set-iteration")

    def test_bug_is_invisible_to_the_repeat_leg(self):
        spec = _tiny_spec()
        assert run_digest(spec).combined == run_digest(spec).combined

    def test_dual_replay_catches_and_localizes(self):
        report = dual_replay(_tiny_spec(), hashseeds=(1, 2))
        assert not report.ok
        # The in-process legs agree with each other; a hash leg differs.
        assert report.digests["run-a"] == report.digests["run-b"]
        assert any(
            report.digests[label] != report.digests["run-a"]
            for label in report.digests if label.startswith("hashseed-")
        )
        divergence = report.divergence
        assert divergence is not None
        assert divergence.line_a != divergence.line_b
        assert divergence.event_index >= 0
        described = report.describe()
        assert "DIVERGENT" in described
        assert "first divergent event" in described
        # Localization carries tracer span context around the event.
        assert divergence.trace_context


class TestFirstDivergence:
    def test_handles_unequal_stream_lengths(self):
        a = run_digest(_tiny_spec(), record=True)
        import copy

        b = copy.deepcopy(a)
        kernel = b.kernels[0]
        kernel.lines.pop()
        kernel.hexdigest = "0" * 32
        located = first_divergence(a, b)
        assert located is not None
        _, index, line_a, line_b = located
        assert line_b == "<stream ended>"
        assert line_a != line_b
