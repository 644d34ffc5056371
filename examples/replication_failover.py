#!/usr/bin/env python3
"""WAN replication and instant failover (paper §2.1, Figure 4).

Two data centers, each a full replica of a 3-node Hermes cluster.  The
primary's sequencer forwards every totally ordered batch across the WAN;
determinism does the rest — no 2PC, no log shipping of effects, and the
replica can take over the moment the primary dies.

Run:  python examples/replication_failover.py
"""

from __future__ import annotations

from repro import (
    Cluster,
    ClusterConfig,
    FusionConfig,
    FusionTable,
    PrescientRouter,
    Transaction,
    make_uniform_ranges,
)
from repro.common.rng import DeterministicRNG
from repro.engine.failover import ReplicatedDeployment
from repro.workloads.multitenant import MultiTenantConfig, MultiTenantWorkload

NUM_KEYS = 2_400


def build_cluster() -> Cluster:
    cluster = Cluster(
        ClusterConfig(num_nodes=3),
        PrescientRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
        overlay=FusionTable(FusionConfig(capacity=300)),
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


def main() -> None:
    deployment = ReplicatedDeployment(
        build_cluster, num_replicas=1, wan_delay_us=80_000.0  # 80 ms WAN
    )
    workload = MultiTenantWorkload(
        MultiTenantConfig(num_nodes=3, tenants_per_node=2,
                          records_per_tenant=400,
                          rotation_interval_us=300_000.0),
        DeterministicRNG(42),
    )
    for i in range(200):
        deployment.submit(workload.make_txn(i + 1, 0.0))

    # Mid-flight the replica lags behind the primary by the WAN delay.
    deployment.run_until(120_000.0)
    print("mid-flight:")
    print(f"  primary epochs delivered : {deployment.primary.epochs_delivered}")
    print(f"  replica epochs delivered : "
          f"{deployment.replicas[0].epochs_delivered}  (lagging, by design)")

    deployment.drain(max_time_us=60_000_000)
    print("\nafter drain:")
    print(f"  primary commits : {deployment.primary.metrics.commits}")
    print(f"  replica commits : {deployment.replicas[0].metrics.commits}")
    print(f"  converged       : {deployment.converged()}")
    assert deployment.converged(), deployment.divergence_report()

    # Disaster strikes: promote the replica.  It needs no recovery — it
    # already executed the same input deterministically.
    promoted = deployment.fail_over(0)
    print("\nfailover: replica promoted, accepting writes immediately")
    promoted.submit(
        Transaction.read_write(
            99_999, reads=[7], writes=[7], arrival_time=promoted.kernel.now
        )
    )
    promoted.run_until_quiescent(promoted.kernel.now + 30_000_000)
    print(f"  promoted commits: {promoted.metrics.commits} "
          "(the 200 replicated + 1 new)")
    assert promoted.metrics.commits == 201
    print("\nOK — replicas identical bit for bit; failover lost nothing "
          "that had been forwarded.")


if __name__ == "__main__":
    main()
