"""Figure 10: the batch-size / performance trade-off.

Batch size here means what it means in the paper: how many requests the
sequencer groups per routing decision.  The offered load is fixed, so
the epoch scales with the batch (batch b at rate R ⇒ epoch ≈ b/R): tiny
batches give the prescient router almost no look-ahead (worse plans,
more migrations), while huge batches make the quadratic routing cost
approach the epoch length and the *serial scheduler itself* becomes the
bottleneck.  The paper finds an interior sweet spot; so must we.
"""

from __future__ import annotations

from repro.bench.figures import google_spec
from repro.bench.harness import run_google_ycsb
from repro.bench.presets import BENCH_COSTS, GOOGLE_BENCH
from repro.common.config import ClusterConfig, EngineConfig
from repro.workloads.ycsb import YCSBConfig

BATCH_SIZES = [10, 50, 200, 1000]
TARGET_RATE = 20_000.0  # offered txns/s the epoch scaling assumes


def _run_with_batch(batch_size: int):
    num_nodes = GOOGLE_BENCH["num_nodes"]
    num_keys = GOOGLE_BENCH["num_keys"]
    duration_us = 4_000_000.0
    epoch_us = max(250.0, batch_size / TARGET_RATE * 1e6)
    config = ClusterConfig(
        num_nodes=num_nodes,
        engine=EngineConfig(
            epoch_us=epoch_us,
            workers_per_node=1,
            max_batch_size=batch_size,
        ),
        costs=BENCH_COSTS,
    )
    ycsb_config = YCSBConfig(
        num_keys=num_keys, num_partitions=num_nodes, zipf_theta=0.8,
        global_cycle_us=duration_us / 2,
    )
    result = run_google_ycsb(
        google_spec("hermes", num_keys),
        ycsb_config,
        cluster_config=config,
        duration_us=duration_us,
        warmup_us=1_000_000.0,
    )
    remote_per_commit = result.remote_reads / max(1, result.commits)
    return result.throughput_per_s, remote_per_commit


def test_fig10_batch_size(run_bench):
    table = run_bench(
        lambda: {b: _run_with_batch(b) for b in BATCH_SIZES}
    )

    print("\nFigure 10 — Hermes throughput vs. batch size "
          f"(epoch scales as b/{TARGET_RATE:.0f}s)")
    for batch_size in BATCH_SIZES:
        tput, remote = table[batch_size]
        print(f"  batch={batch_size:5d}  {tput:8.0f} txns/s  "
              f"remote_reads/commit={remote:.3f}")

    tputs = {b: table[b][0] for b in BATCH_SIZES}
    best = max(BATCH_SIZES, key=lambda b: tputs[b])
    # The sweet spot is interior: both extremes underperform the best.
    assert best not in (BATCH_SIZES[0], BATCH_SIZES[-1]), (
        f"expected an interior optimum, got batch={best}: {tputs}"
    )
    assert tputs[1000] < tputs[best], "huge batches must pay routing cost"
    assert tputs[10] < tputs[best], "tiny batches must lose look-ahead"
    # Look-ahead quality: bigger batches must not need meaningfully more
    # remote reads per committed transaction (small tolerance for the
    # different commit mix the two runs admit).
    assert table[200][1] <= table[10][1] * 1.05
