#!/usr/bin/env python3
"""OLLP in action: transactions whose footprint depends on data (§2.1).

Deterministic databases need read/write-sets up front.  This example
models an order-routing procedure that updates "whichever shard the
directory record currently points at" — a footprint that cannot be known
without reading the directory.  OLLP handles it:

1. a reconnaissance read predicts the footprint,
2. the transaction is submitted with the predicted sets,
3. at execution the (locked) directory value re-derives the footprint;
   if a concurrent update changed it, the transaction deterministically
   aborts and is retried with a fresh prediction.

The example races directory updates against dependent transactions and
shows the restart counter doing its job while the final state stays
consistent.

Run:  python examples/ollp_secondary_index.py
"""

from __future__ import annotations

from repro import Cluster, ClusterConfig, PrescientRouter, Transaction
from repro import make_uniform_ranges
from repro.engine.ollp import OLLP, DependentTxnSpec

NUM_KEYS = 3_000
DIRECTORY = 42          # the record whose value picks the target shard
TARGETS_BASE = 1_000    # candidate records the directory can point at
NUM_TARGETS = 100


def routed_update_spec() -> DependentTxnSpec:
    """Update the record the directory currently selects."""

    def compute(value_of):
        target = TARGETS_BASE + value_of(DIRECTORY) % NUM_TARGETS
        return frozenset(), frozenset([target])

    return DependentTxnSpec(
        dependency_keys=frozenset([DIRECTORY]), compute=compute
    )


def main() -> None:
    cluster = Cluster(
        ClusterConfig(num_nodes=3),
        PrescientRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
    )
    cluster.load_data(range(NUM_KEYS))
    ollp = OLLP(cluster)

    # Interleave directory updates with dependent transactions: every
    # directory write that lands between a recon and its execution forces
    # a deterministic restart.
    committed = []
    for round_index in range(20):
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[DIRECTORY], writes=[DIRECTORY]
            )
        )
        ollp.submit(routed_update_spec(), on_commit=committed.append)

    cluster.run_until_quiescent(max_time_us=120_000_000)

    print(f"dependent transactions completed : {ollp.completed}")
    print(f"reconnaissance reads             : {ollp.recon_reads}")
    print(f"stale predictions (restarts)     : {ollp.restarts}")
    print(f"deterministic aborts recorded    : {cluster.metrics.aborts}")

    touched = [
        key
        for key in range(TARGETS_BASE, TARGETS_BASE + NUM_TARGETS)
        for node in cluster.nodes
        if key in node.store and node.store.read(key).version > 0
    ]
    print(f"target records updated           : {len(touched)}")

    assert ollp.completed == 20
    assert len(committed) == 20
    assert cluster.lock_manager.outstanding() == 0
    print("\nOK — every dependent transaction eventually committed with a "
          "validated footprint.")


if __name__ == "__main__":
    main()
