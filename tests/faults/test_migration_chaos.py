"""Mid-migration chaos: crash / failover / cancel-restart.

Each scenario disrupts a background range migration part-way through,
finishes the run, and must converge to the undisturbed reference —
identical fingerprint and applied set, a clean placement audit with zero
orphaned records, and (for the digest test) byte-identical sanitizer
streams across repeated replay.
"""

import pytest

from repro.common.errors import FaultInjectionError
from repro.faults.chaos import (
    MIGRATION_SCENARIOS,
    MIGRATION_SMOKE_CONFIG,
    make_cluster_builder,
    make_schedule,
    migration_trial_digest,
    run_migration_trial,
    verify_trial,
)

CFG = MIGRATION_SMOKE_CONFIG
SEED = 21


@pytest.fixture(scope="module")
def harness():
    schedule = make_schedule(CFG, SEED)
    build = make_cluster_builder(CFG)
    reference = run_migration_trial(CFG, schedule, build, None)
    assert reference.problems == []
    assert reference.audit.ok, reference.audit.describe()
    return schedule, build, reference


@pytest.mark.parametrize("scenario", MIGRATION_SCENARIOS)
def test_scenario_converges_to_reference(harness, scenario):
    schedule, build, reference = harness
    trial = run_migration_trial(CFG, schedule, build, scenario)
    assert trial.scenario_engaged, (
        f"{scenario} fired after the migration finished — tune event_at_us"
    )
    assert verify_trial(trial, reference) == []
    assert trial.audit.orphaned_records == 0


def test_crash_trial_records_recovery(harness):
    schedule, build, _reference = harness
    trial = run_migration_trial(CFG, schedule, build, "crash")
    assert trial.crashed
    assert trial.recovery_offset_us > 0
    # The crash splits the migration across two controllers (pre/post).
    assert trial.controller_stats["sessions"] >= 2


def test_cancel_restart_orphans_inflight_chunk(harness):
    schedule, build, reference = harness
    trial = run_migration_trial(CFG, schedule, build, "cancel-restart")
    # The chunk that was in the sequencer at cancel time commits under
    # its dead session — counted as orphaned, never resumed.
    assert trial.controller_stats["sessions"] == 2
    assert trial.controller_stats["orphaned"] >= 1
    # Every record still landed exactly once.
    assert trial.audit.orphaned_records == 0
    assert trial.fingerprint == reference.fingerprint


def test_unknown_scenario_rejected(harness):
    schedule, build, _reference = harness
    with pytest.raises(FaultInjectionError):
        run_migration_trial(CFG, schedule, build, "meteor-strike")


def test_trial_digest_is_reproducible():
    first = migration_trial_digest(CFG, "crash", seed=SEED)
    second = migration_trial_digest(CFG, "crash", seed=SEED)
    assert first == second
