"""The event loop makes no reference cycles: the collector pause rests on it.

``Kernel.run`` and ``Kernel.run_until`` keep CPython's cyclic collector
off while they dispatch (see :mod:`repro.sim.kernel`).  That costs
nothing only while everything a run drops is freed by reference counting
alone.  A cycle added to the hot path would instead pile up, uncollected,
for the length of a run; these tests turn that into a named failure.

Each leg runs once to warm up (a code path's first use builds classes
and caches that are cyclic by nature), then again with the collector
off.  A collection must then find nothing, while the simulated cluster
is still alive and, for a closed cluster and the serving core, once
the finished run (and the replay inside ``verify_journal``) has been
dropped.
"""

import gc

import pytest

from repro.api import ExperimentSpec, preset_spec, run_experiment
from repro.common.rng import DeterministicRNG
from repro.faults.chaos import (
    ChaosConfig,
    make_cluster_builder,
    make_schedule,
    run_chaos_trial,
)
from repro.faults.plan import CrashFault, FaultPlan
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal
from repro.workloads.multitenant import MultiTenantConfig

TENANTS = MultiTenantConfig(
    num_nodes=4, tenants_per_node=2, records_per_tenant=500,
    rotation_interval_us=50_000.0,
)
CHAOS = ChaosConfig(num_nodes=4, num_keys=1_500, num_txns=60)
SERVE = ServeConfig(num_keys=400, num_nodes=4, initial_nodes=3)


def multitenant(strategy):
    return run_experiment(ExperimentSpec(
        kind="multitenant", strategies=(strategy,), duration_s=0.2,
        seed=3, keep_cluster=True, params={"config": TENANTS},
    ))


def chaos_crash():
    # The crash abandons the first cluster; keeping every built cluster
    # alive separates a cycle on the hot path from the abandonment.
    built = []
    build = make_cluster_builder(CHAOS)

    def keep_built():
        built.append(build())
        return built[-1]

    trial = run_chaos_trial(
        CHAOS, make_schedule(CHAOS, seed=21), keep_built,
        FaultPlan((CrashFault(at_us=22_000.0),)), DeterministicRNG(5, "gc"),
    )
    assert trial.crashed and len(built) == 2
    return trial, built


def record_serve(path):
    """A finished serve run whose journal includes an elastic resize."""
    core = ServeCore(SERVE, journal=JournalWriter(path))
    for tick in range(10):
        requests = [
            {"reads": [(tick * 7 + i) % 400], "writes": [(tick * 7 + i) % 400]}
            for i in range(5)
        ]
        core.tick(requests, resizes=[("add", 3)] if tick == 3 else [])
    report = core.finish()
    assert report.extras["resizes"] == 1
    return core


@pytest.fixture
def cyclic_garbage():
    """``measure(leg)``: objects a collection frees after the leg's
    second run, the result still held, the collector off throughout."""
    was_on = gc.isenabled()

    def measure(leg):
        leg()
        gc.collect()
        gc.disable()
        kept = leg()
        found = gc.collect()
        del kept
        return found

    yield measure
    if was_on:
        gc.enable()


@pytest.fixture
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")


class TestAcyclicWhileAlive:
    @pytest.mark.parametrize("strategy", ["hermes", "calvin"])
    def test_multitenant_run(self, cyclic_garbage, strategy):
        assert cyclic_garbage(lambda: multitenant(strategy)) == 0

    def test_chaos_trial_with_crash(self, cyclic_garbage):
        assert cyclic_garbage(chaos_crash) == 0

    def test_replication_preset(self, cyclic_garbage, smoke_scale):
        spec = preset_spec("replication", keep_cluster=True)
        assert cyclic_garbage(lambda: run_experiment(spec)) == 0

    def test_serve_journal_with_resize(self, cyclic_garbage, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        assert cyclic_garbage(lambda: record_serve(path)) == 0


class TestClosedClusterFreesItself:
    """A run stopped without draining leaves in-flight commit callbacks,
    each leading back to the cluster through its closed-loop driver;
    ``Cluster.close`` must drop them, and the harness closes every
    cluster it does not hand back."""

    @pytest.mark.parametrize("strategy", ["hermes", "calvin"])
    def test_closed_and_dropped(self, cyclic_garbage, strategy):
        def close_and_drop():
            (result,) = multitenant(strategy)
            result.extras["cluster"].close()

        assert cyclic_garbage(close_and_drop) == 0

    @pytest.mark.parametrize("strategy", ["hermes", "calvin"])
    def test_not_kept(self, cyclic_garbage, strategy):
        def run_unkept():
            run_experiment(ExperimentSpec(
                kind="multitenant", strategies=(strategy,), duration_s=0.2,
                seed=3, params={"config": TENANTS},
            ))

        assert cyclic_garbage(run_unkept) == 0


class TestFinishedServeCoreFreesItself:
    def test_dropped_core(self, cyclic_garbage, tmp_path):
        path = str(tmp_path / "serve.jsonl")

        def finish_and_drop():
            record_serve(path)

        assert cyclic_garbage(finish_and_drop) == 0

    def test_replay_inside_verify_journal(self, cyclic_garbage, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        record_serve(path)
        assert cyclic_garbage(lambda: verify_journal(path)) == 0
