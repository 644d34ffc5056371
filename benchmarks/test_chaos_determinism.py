"""Chaos campaign: deterministic recovery under randomized fault schedules.

The paper's availability argument (Sections 2.1 and 4.3) is that a
deterministic database needs no failure-time coordination: any fault that
preserves the totally ordered input — crashes recovered by checkpoint +
command-log replay, partitions healed by retry, stragglers that merely
slow execution — leads to the *same* final state as a fault-free run.

This benchmark is the adversarial version of that claim.  It draws ≥ 20
randomized fault schedules (node crashes, transient network partitions,
message loss, latency jitter, straggler nodes) over a Google-trace YCSB
workload and, for every schedule, asserts the full invariant set:

* the post-recovery ``state_fingerprint()`` equals the fault-free
  reference bit for bit,
* no committed transaction is lost (the pre-crash applied set survives
  into the durable order and the final applied set),
* no spurious transactions appear,
* every reliable-delivery retry drains (no message stuck in flight, no
  epoch stuck in a reorder buffer).

The printed table doubles as the experiment record: per-trial fault mix,
drop/retry counts, and the recovery offset for crash trials.
"""

from __future__ import annotations

import csv
import os

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

NUM_TRIALS = 24
CFG = ChaosConfig(num_nodes=4, num_keys=4_000, num_txns=400)


def _fault_mix(plan: FaultPlan) -> str:
    counts: dict[str, int] = {}
    for event in plan.events:
        name = type(event).__name__.removesuffix("Fault").lower()
        counts[name] = counts.get(name, 0) + 1
    return ",".join(f"{k}x{v}" for k, v in sorted(counts.items()))


def test_chaos_determinism_campaign(results_dir):
    def experiment():
        schedule = make_schedule(CFG, seed=2021)
        build = make_cluster_builder(CFG)
        reference = run_reference(CFG, schedule, build)
        assert reference.problems == []
        assert len(reference.applied) == CFG.num_txns

        trials = []
        for index in range(NUM_TRIALS):
            rng = DeterministicRNG(1789, "chaos-campaign", index)
            plan = FaultPlan.random(
                rng,
                CFG.num_nodes,
                CFG.horizon_us,
                crash_probability=0.4,
                max_window_us=500_000.0,
            )
            trial = run_chaos_trial(
                CFG, schedule, build, plan, rng.fork("inject")
            )
            trials.append((plan, trial, verify_trial(trial, reference)))
        return reference, trials

    reference, trials = experiment()

    print("\nChaos campaign — deterministic recovery under random faults")
    print(f"  workload: Google-YCSB, {CFG.num_txns} txns, "
          f"{CFG.num_keys} keys, {CFG.num_nodes} nodes")
    print(f"  reference fingerprint: {reference.fingerprint:#018x}")
    header = (f"  {'trial':>5} {'faults':<40} {'crash':>5} "
              f"{'dropped':>8} {'retries':>8} {'verdict':>8}")
    print(header)
    rows = []
    for index, (plan, trial, problems) in enumerate(trials):
        verdict = "ok" if not problems else "FAIL"
        print(f"  {index:>5} {_fault_mix(plan):<40} "
              f"{'yes' if trial.crashed else 'no':>5} "
              f"{trial.messages_dropped:>8} {trial.retries_sent:>8} "
              f"{verdict:>8}")
        rows.append([index, _fault_mix(plan), trial.crashed,
                     trial.messages_dropped, trial.retries_sent,
                     trial.recovery_offset_us, verdict])

    with open(os.path.join(results_dir, "chaos_determinism.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "faults", "crashed", "dropped",
                         "retries", "recovery_offset_us", "verdict"])
        writer.writerows(rows)

    # Every single schedule must reproduce the reference exactly.
    for index, (plan, _trial, problems) in enumerate(trials):
        assert problems == [], (
            f"trial {index} ({_fault_mix(plan)}) diverged: {problems}"
        )
    # The campaign must actually exercise the whole fault zoo.
    crashed = sum(1 for _p, t, _x in trials if t.crashed)
    partitions = sum(
        1 for p, _t, _x in trials
        if any(type(e).__name__ == "PartitionFault" for e in p.events)
    )
    stragglers = sum(
        1 for p, _t, _x in trials
        if any(type(e).__name__ == "StragglerFault" for e in p.events)
    )
    dropped = sum(t.messages_dropped for _p, t, _x in trials)
    retried = sum(t.retries_sent for _p, t, _x in trials)
    assert crashed >= 3, "campaign drew too few crashes"
    assert partitions >= 3, "campaign drew too few partitions"
    assert stragglers >= 3, "campaign drew too few stragglers"
    assert dropped > 0 and retried > 0, "faults never bit the network"
