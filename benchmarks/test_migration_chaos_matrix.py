"""Nightly matrix: mid-migration chaos across scenarios, timings, seeds.

The tier-1 smoke job covers one crash at one disruption time.  Nightly
widens the net: every scenario (crash, failover, cancel-restart) is
struck at several points of the migration's lifetime and under several
workload seeds, and each cell must converge to its
undisturbed reference — identical fingerprint and applied set, clean
placement audit, zero orphaned records.  A sanitizer-digest dual run
per scenario guards the determinism of the disruption machinery itself.
"""

from __future__ import annotations

import csv
import os

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
SEEDS = (21, 97)
#: (event_at_us, resume_at_us): early / middle / late in the migration.
TIMINGS = (
    (30_000.0, 80_000.0),
    (50_000.0, 100_000.0),
    (70_000.0, 130_000.0),
)


def test_migration_chaos_matrix(results_dir):
    def experiment():
        cells = []
        for seed in SEEDS:
            for event_at, resume_at in TIMINGS:
                schedule = make_schedule(CFG, seed)
                build = make_cluster_builder(CFG)
                reference = run_migration_trial(CFG, schedule, build, None)
                assert reference.problems == []
                for scenario in MIGRATION_SCENARIOS:
                    trial = run_migration_trial(
                        CFG, schedule, build, scenario,
                        event_at_us=event_at, resume_at_us=resume_at,
                    )
                    cells.append((
                        seed, event_at, scenario, trial,
                        verify_trial(trial, reference),
                    ))
        digests = {
            scenario: (
                migration_trial_digest(CFG, scenario),
                migration_trial_digest(CFG, scenario),
            )
            for scenario in MIGRATION_SCENARIOS
        }
        return cells, digests

    cells, digests = experiment()

    print("\nMid-migration chaos matrix")
    print(f"  {'seed':>5} {'event_us':>9} {'scenario':<16} "
          f"{'sessions':>8} {'orphaned':>8} {'engaged':>8} {'verdict':>8}")
    rows = []
    for seed, event_at, scenario, trial, problems in cells:
        verdict = "ok" if not problems else "FAIL"
        stats = trial.controller_stats
        print(f"  {seed:>5} {event_at:>9.0f} {scenario:<16} "
              f"{stats['sessions']:>8} {stats['orphaned']:>8} "
              f"{'yes' if trial.scenario_engaged else 'no':>8} "
              f"{verdict:>8}")
        rows.append([seed, event_at, scenario, stats["sessions"],
                     stats["orphaned"], trial.scenario_engaged, verdict])

    with open(os.path.join(results_dir, "migration_chaos_matrix.csv"),
              "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "event_at_us", "scenario", "sessions",
                         "orphaned", "engaged", "verdict"])
        writer.writerows(rows)

    for seed, event_at, scenario, trial, problems in cells:
        assert problems == [], (
            f"seed {seed}, event {event_at:.0f}us, {scenario}: {problems}"
        )
        assert trial.audit.orphaned_records == 0
    # Every cell must actually have struck mid-migration.
    engaged = sum(1 for *_rest, t, _p in cells if t.scenario_engaged)
    assert engaged == len(cells), "some cells fired after the migration"
    # Disruption machinery is itself deterministic: dual digests agree.
    for scenario, (first, second) in digests.items():
        assert first == second, f"{scenario} digest not reproducible"
