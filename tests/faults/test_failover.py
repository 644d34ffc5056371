"""WAN failover as a crash kind: the promoted replica is the survivor.

A :class:`FailoverFault` runs through the one crash path of the chaos
harness; only the survivor differs (a replica fed the primary's
delivered batches across the WAN, instead of a replay of the command
log).  Every trial must match the fault-free reference bit for bit.
"""

import functools

import pytest

from repro.common.errors import FaultInjectionError
from repro.common.rng import DeterministicRNG
from repro.engine.recovery import WAN_DELAY_US
from repro.faults import chaos
from repro.faults.chaos import (
    MIGRATION_SMOKE_CONFIG,
    ChaosConfig,
    make_cluster_builder,
    make_schedule,
    run_chaos_trial,
    run_migration_trial,
    run_reference,
    verify_trial,
)
from repro.faults.plan import CrashFault, FailoverFault, FaultPlan

CFG = ChaosConfig()
SEEDS = (1, 7, 2021)
#: Inside the first ordering latency (epoch 1 is cut at 5 ms and
#: delivered at 5.4 ms), mid-WAN-flight, mid-run, and after the
#: schedule has drained.
INSTANTS_US = (3_000.0, 5_200.0, 10_000.0, 55_000.0, 120_000.0,
               199_000.0, 400_000.0)


@functools.cache
def harness(seed):
    schedule = make_schedule(CFG, seed)
    build = make_cluster_builder(CFG)
    return schedule, build, run_reference(CFG, schedule, build)


def trial(seed, fault):
    schedule, build, _reference = harness(seed)
    return run_chaos_trial(
        CFG, schedule, build, FaultPlan((fault,)),
        DeterministicRNG(seed, "failover"),
    )


@pytest.mark.parametrize("at_us", INSTANTS_US)
@pytest.mark.parametrize("seed", SEEDS)
def test_failover_matches_reference(seed, at_us):
    result = trial(seed, FailoverFault(at_us=at_us))
    assert result.crashed
    assert verify_trial(result, harness(seed)[2]) == []


def test_crash_inside_ordering_latency_resubmits():
    # At 5.2 ms epoch 1 is sequenced but undelivered: nothing has
    # crossed the WAN, so its batch and the backlog go to the survivor.
    # Both crash kinds hand over the same window.
    failover = trial(1, FailoverFault(at_us=5_200.0))
    crash = trial(1, CrashFault(at_us=5_200.0))
    assert failover.resubmitted > 0
    assert failover.resubmitted == crash.resubmitted


def test_nothing_resubmitted_after_drain():
    assert trial(1, FailoverFault(at_us=400_000.0)).resubmitted == 0


# The default strike, 50 ms, is test_migration_chaos.py's
# test_scenario_converges_to_reference[failover].
@pytest.mark.parametrize("event_at_us", (20_000.0, 80_000.0))
def test_mid_migration_failover(event_at_us):
    config = MIGRATION_SMOKE_CONFIG
    schedule = make_schedule(config, 21)
    build = make_cluster_builder(config)
    reference = run_migration_trial(config, schedule, build, None)
    result = run_migration_trial(
        config, schedule, build, "failover", event_at_us=event_at_us
    )
    assert result.scenario_engaged
    assert verify_trial(result, reference) == []


def test_dropped_forwarded_batch_fails_verification(monkeypatch):
    # Teeth: a WAN link that loses one batch must not pass as a
    # takeover.  The replica's state diverges and its reorder buffer
    # never releases the epochs behind the gap.
    def lossy_tee(primary, replica):
        deliver = primary.sequencer.deliver

        def tee(batch):
            deliver(batch)
            if batch.epoch != 3:
                replica.kernel.call_at(
                    primary.kernel.now + WAN_DELAY_US,
                    replica.inject_batch_ordered, batch.clone(),
                )

        primary.sequencer.deliver = tee

    monkeypatch.setattr(chaos, "_tee_to_replica", lossy_tee)
    problems = verify_trial(
        trial(1, FailoverFault(at_us=120_000.0)), harness(1)[2]
    )
    assert any(p.startswith("fingerprint mismatch") for p in problems)


def test_failover_counts_as_the_plans_crash():
    plan = FaultPlan((CrashFault(at_us=10.0), FailoverFault(at_us=20.0)))
    assert plan.crashes() == [CrashFault(10.0), FailoverFault(20.0)]
    assert plan.scheduled() == []
    with pytest.raises(FaultInjectionError):
        plan.validate(num_nodes=4)
    FaultPlan((FailoverFault(at_us=20.0),)).validate(num_nodes=4)
