"""The parallel benchmark fleet must be invisible in the results.

``parallel_map`` fans independent runs over a process pool; these tests
pin the contract the figure helpers rely on: submission order is
preserved, a parallel sweep returns exactly what the serial loop would,
and the keep-cluster escape hatch refuses to cross process boundaries.
"""

import pytest

from dataclasses import replace

from repro.api import ExperimentSpec, run_experiment
from repro.bench import figures
from repro.bench.harness import parallel_map
from repro.workloads.multitenant import MultiTenantConfig

TINY = MultiTenantConfig(
    num_nodes=2, tenants_per_node=2, records_per_tenant=100,
    rotation_interval_us=200_000.0,
)


def _square(task):
    index, value = task
    return (index, value * value)


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        tasks = [(i, i + 3) for i in range(10)]
        serial = parallel_map(_square, tasks)
        pooled = parallel_map(_square, tasks, jobs=4)
        assert serial == pooled
        assert [i for i, _ in pooled] == list(range(10))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [(0, 1)], jobs=0)

    def test_single_task_stays_serial(self):
        # A lone task never pays pool overhead; unpicklable callables
        # are fine because nothing crosses a process boundary.
        assert parallel_map(lambda t: t + 1, [41], jobs=8) == [42]


class TestFleetEquivalence:
    def test_multitenant_parallel_matches_serial(self):
        spec = ExperimentSpec(
            kind="multitenant", strategies=("calvin", "hermes"),
            duration_s=0.4, window_us=100_000.0,
            params={"config": TINY},
        )
        serial = run_experiment(spec)
        pooled = run_experiment(spec.with_overrides(jobs=2))
        assert [r.strategy for r in pooled] == ["calvin", "hermes"]
        for a, b in zip(serial, pooled):
            assert a.commits == b.commits
            assert a.throughput_per_s == b.throughput_per_s
            assert a.mean_latency_us == b.mean_latency_us
            assert a.latency_p99_us == b.latency_p99_us
            assert a.throughput_series.values == b.throughput_series.values
            assert a.extras == b.extras

    def test_keep_cluster_requires_serial(self):
        spec = ExperimentSpec(
            kind="multitenant", strategies=("calvin",),
            jobs=2, keep_cluster=True,
        )
        with pytest.raises(ValueError, match="keep_cluster"):
            run_experiment(spec)

    def test_tpcc_sweep_groups_by_hot_fraction(self, monkeypatch):
        sweep = figures.KINDS["tpcc_sweep"]
        monkeypatch.setitem(figures.KINDS, "tpcc_sweep", replace(
            sweep, run=lambda spec, name, *, hot_fraction: (name, hot_fraction)
        ))
        table = run_experiment(ExperimentSpec(
            kind="tpcc_sweep", strategies=("a", "b"),
            params={"hot_fractions": (0.1, 0.9)},
        ))
        assert table == {
            0.1: [("a", 0.1), ("b", 0.1)],
            0.9: [("a", 0.9), ("b", 0.9)],
        }
