"""Fast-path semantic-equivalence regression test.

The simulation fast path (kernel run-queue + cancellable timers, bulk
batch routing) must be a pure optimization: every strategy's simulated
behavior has to stay *byte-identical* to the pre-fast-path semantics.
The golden values below — state fingerprint, commit count, and record
conservation per strategy, plus one chaos-recovery trial — were recorded
on the old code path (heap-only kernel, per-key `owner()` routing) at
seed 1234 before the fast path landed.  Any divergence means the fast
path changed scheduling order or routing decisions, not just their cost.

The workloads here use integer keys only, so the fingerprints (built
from `hash()` of int tuples) are stable across processes and Python
3.11/3.12 regardless of `PYTHONHASHSEED`.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_workload
from repro.bench.specs import ALL_STRATEGIES, make_strategy
from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.rng import DeterministicRNG
from repro.faults.chaos import (
    ChaosConfig,
    make_cluster_builder,
    make_schedule,
    run_chaos_trial,
    run_reference,
    verify_trial,
)
from repro.faults.plan import FaultPlan
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    perfect_partitioner,
)

SEED = 1234

WL = MultiTenantConfig(
    num_nodes=3, tenants_per_node=2, records_per_tenant=120,
    rotation_interval_us=300_000.0,
)
CLUSTER = ClusterConfig(
    num_nodes=3, engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2)
)

#: strategy -> (state_fingerprint, commits, total_records), recorded on
#: the pre-fast-path code.  Regenerate ONLY for intentional semantic
#: changes: PYTHONPATH=src python tests/integration/record_fastpath_golden.py
GOLDEN = {
    "calvin": (0xd438b7b6b0f67e0e, 612, 720),
    "clay": (0xe771b82a72732014, 612, 720),
    "gstore": (0x7013a73282d9f1ac, 612, 720),
    "tpart": (0x4b26b5862bd4ac8, 612, 720),
    "leap": (0xb4fc1a8971d11ed9, 612, 720),
    "hermes": (0xf24bc5c3ca1cbbc4, 612, 720),
}

GOLDEN_CHAOS_FINGERPRINT = 0x27000a8c83222cc
GOLDEN_CHAOS_APPLIED = 150


def mini_run(name: str, trace=None):
    """One short deterministic run of a strategy preset.

    ``trace`` attaches a :class:`repro.obs.tracer.Tracer`; the
    trace-determinism tests reuse this run (same config, same goldens)
    to prove tracing never perturbs the simulation.
    """
    spec = make_strategy(
        name,
        fusion=FusionConfig(capacity=60),
        clay_clump_records=30,
        clay_monitor_interval_us=200_000.0,
    )
    return run_workload(
        spec,
        cluster_config=CLUSTER,
        partitioner_factory=lambda: perfect_partitioner(WL),
        workload_factory=lambda rng: MultiTenantWorkload(WL, rng),
        seed=SEED,
        duration_us=300_000.0,
        warmup_us=50_000.0,
        mode="closed",
        clients=12,
        keep_cluster=True,
        trace=trace,
    )


def chaos_run():
    """One chaos trial (crash + partition mix) at a fixed plan seed."""
    config = ChaosConfig(num_nodes=3, num_keys=1_500, num_txns=150)
    schedule = make_schedule(config, seed=SEED)
    build = make_cluster_builder(config)
    reference = run_reference(config, schedule, build)
    rng = DeterministicRNG(SEED, "fastpath-chaos")
    plan = FaultPlan.random(
        rng, config.num_nodes, config.horizon_us,
        crash_probability=1.0, max_window_us=400_000.0,
    )
    trial = run_chaos_trial(config, schedule, build, plan, rng.fork("inject"))
    return reference, trial


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_strategy_matches_pre_fastpath_golden(self, name):
        result = mini_run(name)
        cluster = result.extras["cluster"]
        fingerprint, commits, records = GOLDEN[name]
        assert cluster.state_fingerprint() == fingerprint, (
            f"{name}: fast path changed the final database state"
        )
        assert result.commits == commits, (
            f"{name}: fast path changed the commit count"
        )
        assert cluster.total_records() == records

    def test_chaos_trial_matches_pre_fastpath_golden(self):
        reference, trial = chaos_run()
        assert verify_trial(trial, reference) == []
        assert trial.fingerprint == GOLDEN_CHAOS_FINGERPRINT
        assert len(trial.applied) == GOLDEN_CHAOS_APPLIED

    def test_repeat_run_is_bit_identical(self):
        a = mini_run("hermes")
        b = mini_run("hermes")
        ca, cb = a.extras["cluster"], b.extras["cluster"]
        assert ca.state_fingerprint() == cb.state_fingerprint()
        assert ca.placement_snapshot() == cb.placement_snapshot()
        assert a.commits == b.commits
