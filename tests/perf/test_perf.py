"""Unit tests for the perf microbenchmark harness and regression gate."""

import json

import pytest

from repro.perf import scenarios
from repro.perf.__main__ import (
    GATED,
    HEAVY,
    check_tracer_overhead,
    compare,
    main,
    normalized,
    parse_tolerance_overrides,
    trend,
)
from repro.perf.measure import measure, measure_interleaved


class TestMeasure:
    def test_keeps_best_rate(self):
        calls = []

        def scenario():
            calls.append(1)
            return 100

        result = measure("x", scenario, repeats=3)
        assert len(calls) == 3
        assert result.events == 100
        assert result.events_per_s > 0
        assert result.repeats == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            measure("x", lambda: 1, repeats=0)
        with pytest.raises(ValueError):
            measure("x", lambda: 0, repeats=1)

    def test_profile_attaches_stats(self):
        result = measure("x", lambda: 10, repeats=1, profile=True)
        assert "cumulative" in result.profile_top

    def test_interleaved_keeps_every_round(self):
        order = []
        results = measure_interleaved(
            {"a": lambda: order.append("a") or 10,
             "b": lambda: order.append("b") or 20},
            repeats=3,
        )
        assert order == ["a", "b"] * 3
        for result in results.values():
            assert len(result.rates) == 3
            assert result.events_per_s == max(result.rates)


class TestScenarios:
    """Every scenario must run at tiny scale and report its work units."""

    @pytest.mark.parametrize(
        "name", [n for n in scenarios.SCENARIOS if n not in HEAVY]
    )
    def test_runs_at_tiny_scale(self, name):
        assert scenarios.run_scenario(name, scale=0.01) > 0

    def test_scenarios_are_deterministic(self):
        # Same scale -> same unit count (the denominator of events/s).
        for name in ("kernel_dispatch", "kernel_e2e", "routing",
                     "replica_reads"):
            a = scenarios.run_scenario(name, scale=0.01)
            b = scenarios.run_scenario(name, scale=0.01)
            assert a == b, name

    def test_heavy_scenarios_registered_but_not_gated(self):
        # scale_sim_20m loads 20M keys — only the weekly workflow runs
        # it; it must never enter the default suite or the perf gate.
        for name in HEAVY:
            assert name in scenarios.SCENARIOS
            assert name not in GATED
        assert "replica_reads" in GATED


def entry(**rates):
    benches = {
        name: {"events_per_s": rate, "events": 1, "wall_s": 1.0,
               "repeats": 1}
        for name, rate in rates.items()
    }
    return {"label": "base", "benches": benches}


class TestCompare:
    def test_normalized_divides_by_calibration(self):
        norm = normalized(entry(calibration=200.0, routing=50.0)["benches"])
        assert norm == {"routing": 0.25}

    def test_gate_passes_within_tolerance(self):
        base = entry(calibration=100.0, routing=50.0)
        current = entry(calibration=100.0, routing=40.0)["benches"]
        assert compare(current, base, tolerance=0.30) == []

    def test_gate_fails_beyond_tolerance(self):
        base = entry(calibration=100.0, routing=50.0)
        current = entry(calibration=100.0, routing=30.0)["benches"]
        problems = compare(current, base, tolerance=0.30)
        assert len(problems) == 1 and "routing" in problems[0]

    def test_faster_machine_is_not_a_regression(self):
        # Twice the raw speed everywhere normalizes to the same score.
        base = entry(calibration=100.0, routing=50.0)
        current = entry(calibration=200.0, routing=100.0)["benches"]
        assert compare(current, base, tolerance=0.30) == []

    def test_missing_calibration_reported(self):
        problems = compare(entry(routing=1.0)["benches"],
                           entry(routing=1.0), tolerance=0.3)
        assert "calibration" in problems[0]

    def test_per_scenario_tolerance_overrides_blanket(self):
        # A 40% drop fails the 30% blanket but passes a 50% override —
        # and the override must not loosen other benches.
        base = entry(calibration=100.0, routing=50.0, end_to_end=50.0)
        current = entry(
            calibration=100.0, routing=30.0, end_to_end=30.0
        )["benches"]
        problems = compare(
            current, base, tolerance=0.30, per_scenario={"routing": 0.50}
        )
        assert len(problems) == 1 and "end_to_end" in problems[0]

    @pytest.mark.parametrize("ratio, failures", [
        (0.985, 0), (0.97, 0), (0.96, 1), (None, 0),
    ])
    def test_tracer_gate_reads_the_median_round_ratio(self, ratio, failures):
        extras = {} if ratio is None else {"round_ratio_median": ratio}
        current = {"kernel_e2e": {"events_per_s": 100.0},
                   "tracer_overhead": {"events_per_s": 50.0,
                                       "extras": extras}}
        # The best-of scores (a 50 % gap here) no longer decide.
        assert len(check_tracer_overhead(current)) == failures

    def test_parse_tolerance_overrides(self):
        overrides = parse_tolerance_overrides(
            ["routing=0.35", "end_to_end=0.4"]
        )
        assert overrides == {"routing": 0.35, "end_to_end": 0.4}
        with pytest.raises(ValueError, match="name=frac"):
            parse_tolerance_overrides(["routing"])
        with pytest.raises(ValueError, match="unknown bench"):
            parse_tolerance_overrides(["nope=0.1"])


class TestTrend:
    def history(self):
        return [
            {"label": "PR 2", "scale": 1.0,
             "benches": entry(calibration=100.0, routing=23.0)["benches"]},
            {"label": "PR 3", "scale": 1.0,
             "benches": entry(calibration=100.0, routing=19.0)["benches"]},
            {"label": "quick", "scale": 0.1,
             "benches": entry(calibration=100.0, routing=14.0)["benches"]},
        ]

    def test_groups_by_scale_and_lists_scenarios(self):
        out = trend(self.history())
        assert "scale=1.0  (2 entries)" in out
        assert "scale=0.1  (1 entries)" in out
        assert "routing" in out and "calibration" in out
        assert "PR 2" in out and "PR 3" in out

    def test_missing_bench_leaves_blank_cell(self):
        history = self.history()
        del history[1]["benches"]["routing"]
        out = trend(history)  # must not raise on the hole
        assert "routing" in out


class TestCli:
    def test_json_and_compare_roundtrip(self, tmp_path, capsys):
        track = tmp_path / "bench.json"
        argv = ["--scale", "0.01", "--repeats", "1",
                "--bench", "kernel_dispatch",
                "--json", str(track), "--label", "seed"]
        assert main(argv) == 0
        doc = json.loads(track.read_text())
        assert doc["schema"] == 1
        assert doc["history"][0]["label"] == "seed"
        assert "kernel_dispatch" in doc["history"][0]["benches"]
        # Self-compare at the same scale passes the gate.
        assert main(["--scale", "0.01", "--repeats", "1",
                     "--bench", "kernel_dispatch",
                     "--compare", str(track)]) == 0
        out = capsys.readouterr().out
        assert "perf gate OK" in out

    def test_unknown_bench_rejected(self):
        with pytest.raises(SystemExit):
            main(["--bench", "nope"])

    def test_bad_tolerance_override_rejected(self):
        with pytest.raises(SystemExit):
            main(["--bench", "kernel_dispatch", "--tolerance-for", "nope=1"])

    def test_trend_prints_and_exits(self, tmp_path, capsys):
        track = tmp_path / "bench.json"
        assert main(["--scale", "0.01", "--repeats", "1",
                     "--bench", "kernel_dispatch",
                     "--json", str(track), "--label", "seed"]) == 0
        capsys.readouterr()
        assert main(["--trend", str(track)]) == 0
        out = capsys.readouterr().out
        assert "kernel_dispatch" in out and "seed" in out

    def test_trend_empty_history_fails(self, tmp_path, capsys):
        track = tmp_path / "bench.json"
        track.write_text(json.dumps({"schema": 1, "history": []}))
        assert main(["--trend", str(track)]) == 1
