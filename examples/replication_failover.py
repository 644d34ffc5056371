#!/usr/bin/env python3
"""WAN replication and instant failover (paper §2.1, Figure 4).

A replica site consumes the primary's totally ordered batches 50 ms
behind it across the WAN.  Determinism does the rest — no 2PC, no log
shipping of effects — so when the primary site is lost mid-run the
replica takes over with no recovery protocol: it finishes the batches
still crossing the WAN, and clients resubmit only what never left the
primary (its sequencer backlog and batches inside the ordering
latency).  The run is checked against a fault-free reference.

Run:  python examples/replication_failover.py
"""

from __future__ import annotations

from repro.common.rng import DeterministicRNG
from repro.faults.chaos import (
    ChaosConfig,
    make_cluster_builder,
    make_schedule,
    run_chaos_trial,
    run_reference,
    verify_trial,
)
from repro.faults.plan import FailoverFault, FaultPlan


def main() -> None:
    config = ChaosConfig()
    schedule = make_schedule(config, seed=42)
    build = make_cluster_builder(config)
    reference = run_reference(config, schedule, build)
    print(f"reference : {len(reference.applied)} txns, "
          f"fingerprint {reference.fingerprint:#x}")

    # The primary site is lost 120 ms in; the replica is promoted.
    trial = run_chaos_trial(
        config, schedule, build,
        FaultPlan((FailoverFault(at_us=120_000.0),)),
        DeterministicRNG(42, "failover"),
    )
    problems = verify_trial(trial, reference)
    print(f"failover  : {len(trial.applied)} txns, "
          f"fingerprint {trial.fingerprint:#x}")
    print(f"resubmitted to the promoted replica: {trial.resubmitted} txns")
    print(f"verify_trial(...) == []: {problems == []}")
    assert problems == [], problems
    print("\nOK — the promoted replica reached the fault-free state bit "
          "for bit; only the never-forwarded window was resubmitted.")


if __name__ == "__main__":
    main()
