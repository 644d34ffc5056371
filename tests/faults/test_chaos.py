"""Fast chaos-determinism checks (the full sweep lives in benchmarks/)."""

from dataclasses import replace

import pytest

from repro.analysis.placement_audit import audit_placement
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.engine.recovery import DurableState
from repro.faults.chaos import (
    ChaosConfig,
    make_cluster_builder,
    make_schedule,
    run_chaos_trial,
    run_reference,
    verify_trial,
)
from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    JitterFault,
    LinkLossFault,
    PartitionFault,
    StragglerFault,
)

CFG = ChaosConfig(num_nodes=4, num_keys=1_500, num_txns=100)


@pytest.fixture(scope="module")
def harness():
    schedule = make_schedule(CFG, seed=21)
    build = make_cluster_builder(CFG)
    reference = run_reference(CFG, schedule, build)
    assert reference.problems == []
    assert len(reference.applied) == CFG.num_txns
    return schedule, build, reference


class TestReference:
    def test_schedule_is_deterministic(self):
        first = make_schedule(CFG, seed=21)
        second = make_schedule(CFG, seed=21)
        assert [(t, txn.txn_id, txn.read_set) for t, txn in first] == [
            (t, txn.txn_id, txn.read_set) for t, txn in second
        ]

    def test_arrivals_strictly_increase(self):
        schedule = make_schedule(CFG, seed=1)
        assert len(schedule) == CFG.num_txns
        times = [at for at, _ in schedule]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reference_is_deterministic(self, harness):
        schedule, build, reference = harness
        again = run_reference(CFG, schedule, build)
        assert again.fingerprint == reference.fingerprint
        assert again.applied == reference.applied


class TestWindowedFaults:
    def test_partition_and_loss_preserve_state(self, harness):
        schedule, build, reference = harness
        plan = FaultPlan(
            events=(
                PartitionFault(
                    start_us=5_000.0,
                    duration_us=300_000.0,
                    groups=((0, 1), (2, 3)),
                ),
                LinkLossFault(
                    start_us=2_000.0, duration_us=400_000.0,
                    probability=0.4,
                ),
            )
        )
        trial = run_chaos_trial(
            CFG, schedule, build, plan, DeterministicRNG(3, "t1")
        )
        assert verify_trial(trial, reference) == []
        assert trial.messages_dropped > 0
        assert trial.retries_sent > 0

    def test_straggler_and_jitter_preserve_state(self, harness):
        schedule, build, reference = harness
        plan = FaultPlan(
            events=(
                StragglerFault(
                    start_us=1_000.0, duration_us=400_000.0, node=1,
                    slowdown=6.0,
                ),
                JitterFault(
                    start_us=1_000.0, duration_us=400_000.0,
                    max_extra_us=2_000.0,
                ),
            )
        )
        trial = run_chaos_trial(
            CFG, schedule, build, plan, DeterministicRNG(4, "t2")
        )
        assert verify_trial(trial, reference) == []


class TestCrashRecovery:
    def test_crash_recovers_to_reference_state(self, harness):
        schedule, build, reference = harness
        plan = FaultPlan(events=(CrashFault(at_us=22_000.0),))
        trial = run_chaos_trial(
            CFG, schedule, build, plan, DeterministicRNG(5, "t3")
        )
        assert verify_trial(trial, reference) == []
        assert trial.crashed
        epoch_us = 20_000.0  # EngineConfig default
        assert trial.recovery_offset_us % epoch_us == 0.0

    def test_crash_with_concurrent_partition(self, harness):
        schedule, build, reference = harness
        plan = FaultPlan(
            events=(
                CrashFault(at_us=30_000.0),
                PartitionFault(
                    start_us=10_000.0,
                    duration_us=100_000.0,  # straddles the crash
                    groups=((0,), (1, 2, 3)),
                ),
            )
        )
        trial = run_chaos_trial(
            CFG, schedule, build, plan, DeterministicRNG(6, "t4")
        )
        assert verify_trial(trial, reference) == []

    def test_capture_requires_command_log(self):
        config = ChaosConfig(num_nodes=2, num_keys=100, num_txns=0)
        cluster = make_cluster_builder(config)()
        cluster.command_log = None
        with pytest.raises(ConfigurationError):
            DurableState.capture(cluster)


class TestRandomPlans:
    def test_random_plans_preserve_state(self, harness):
        schedule, build, reference = harness
        for i in range(4):
            rng = DeterministicRNG(777, "random", i)
            plan = FaultPlan.random(
                rng,
                CFG.num_nodes,
                CFG.horizon_us,
                crash_probability=0.5,
                max_window_us=300_000.0,
            )
            trial = run_chaos_trial(
                CFG, schedule, build, plan, rng.fork("inject")
            )
            assert verify_trial(trial, reference) == [], (
                f"plan {i}: {plan.events}"
            )


class TestVerifyTrial:
    """The one verifier reports each way a trial can deviate."""

    def test_fingerprint_mismatch_reported(self, harness):
        _schedule, _build, reference = harness
        trial = replace(reference, fingerprint=reference.fingerprint ^ 1)
        assert verify_trial(trial, reference) == [
            f"fingerprint mismatch: {trial.fingerprint:#x} != "
            f"{reference.fingerprint:#x}"
        ]

    def test_unapplied_reference_txn_reported(self, harness):
        _schedule, _build, reference = harness
        trial = replace(
            reference, applied=reference.applied - {min(reference.applied)}
        )
        assert verify_trial(trial, reference) == [
            "1 reference txns never applied"
        ]

    def test_misplaced_record_on_plain_trial_reported(self, harness):
        schedule, build, reference = harness
        built = []

        def build_and_keep():
            built.append(build())
            return built[-1]

        plan = FaultPlan(
            events=(
                StragglerFault(
                    start_us=1_000.0, duration_us=50_000.0, node=1,
                    slowdown=3.0,
                ),
            )
        )
        trial = run_chaos_trial(
            CFG, schedule, build_and_keep, plan, DeterministicRNG(8, "t5")
        )
        # A plain fault-plan trial carries its own placement audit.
        assert trial.audit.ok and trial.audit.orphaned_records == 0
        assert verify_trial(trial, reference) == []

        # Move one record to the wrong store after the run: the
        # fingerprint cannot see placement, the audit must.
        cluster = built[-1]
        src = next(n for n in cluster.nodes if 5 in n.store.keys())
        dst = cluster.nodes[(src.node_id + 1) % CFG.num_nodes]
        dst.store.install(src.store.evict(5))
        assert cluster.state_fingerprint() == reference.fingerprint
        misplaced = replace(
            trial, audit=audit_placement(cluster, expected_total=CFG.num_keys)
        )
        problems = verify_trial(misplaced, reference)
        assert "trial has 1 orphaned records" in problems
        assert any(p.startswith("trial placement audit:") for p in problems)
