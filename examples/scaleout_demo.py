#!/usr/bin/env python3
"""Live scale-out: add a node under load (paper §3.3 / Figure 14).

A 3-node cluster runs the multi-tenant workload with a fixed hot tenant
on node 0.  Mid-run, a 4th node joins: a totally ordered topology
transaction tells every scheduler replica at the same point in the total
order, the prescient router immediately starts fusing hot records onto
the new node, and a background migration trickles the cold range over in
chunks that *skip* fusion-table records — so foreground transactions
barely notice.

Run:  python examples/scaleout_demo.py
"""

from __future__ import annotations

from repro.api import ExperimentSpec, run_experiment


def main() -> None:
    print("running scale-out scenarios (3 nodes -> 4 nodes) ...\n")
    variants = {
        "squall": "Calvin + chunked migration (locks hot records)",
        "hermes-cold-5": "Hermes: fusion + cold chunks skipping hot data",
    }
    results = {}
    for variant, description in variants.items():
        print(f"  {variant}: {description}")
        (results[variant],) = run_experiment(ExperimentSpec(
            kind="scaleout", strategies=(variant,), duration_s=12.0,
            keep_cluster=True,
        ))

    print("\nthroughput around the scale-out event (txns per 0.5 s window):")
    event_us = results["squall"].extras["event_us"]
    header = f"{'t(s)':>6} " + "".join(f"{v:>16}" for v in variants)
    print(header)
    series = {v: r.throughput_series for v, r in results.items()}
    length = max(len(s) for s in series.values())
    for index in range(0, length, 2):
        row = []
        time_s = None
        for variant in variants:
            s = series[variant]
            if index < len(s):
                time_s = s.times[index] / 1e6
                row.append(f"{s.values[index]:16.0f}")
            else:
                row.append(f"{'-':>16}")
        marker = "  <- node added" if (
            time_s is not None and abs(time_s - event_us / 1e6) < 0.5
        ) else ""
        print(f"{time_s:6.1f} " + "".join(row) + marker)

    for variant, result in results.items():
        cluster = result.extras["cluster"]
        new_node = cluster.nodes[3]
        print(f"\n{variant}: node 3 ended with {len(new_node.store)} records "
              f"and {new_node.commits} commits")

    print(
        "\nPaper shape: Hermes' throughput rises as soon as the topology"
        "\ntransaction lands; Squall dips while its chunks lock hot records."
    )


if __name__ == "__main__":
    main()
