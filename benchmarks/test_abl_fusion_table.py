"""Ablations of the fusion table: capacity sweep and eviction policy.

Section 4.1: Hermes still wins with the table capped at a small
percentage of the database (the paper uses 2.5 %), because OLTP hot sets
are small; and any deterministic replacement policy (FIFO or LRU) works,
with LRU expected to evict less useful entries marginally less often.
"""

from __future__ import annotations

from repro.bench.harness import run_google_ycsb
from repro.bench.presets import (
    GOOGLE_BENCH,
    bench_cluster_config,
    bench_scale,
)
from repro.bench.reporting import format_table
from repro.bench.specs import make_strategy
from repro.common.config import FusionConfig
from repro.workloads.ycsb import YCSBConfig


def _run_hermes_with(capacity: int, eviction: str = "lru"):
    """The ``google`` kind's Hermes row with the fusion table swapped."""
    num_nodes = GOOGLE_BENCH["num_nodes"]
    duration_us = 4.0 * bench_scale() * 1e6
    spec = make_strategy(
        "hermes", fusion=FusionConfig(capacity=capacity, eviction=eviction)
    )
    spec.name = f"hermes-{eviction}-{capacity}"
    return run_google_ycsb(
        spec,
        YCSBConfig(
            num_keys=GOOGLE_BENCH["num_keys"], num_partitions=num_nodes,
            zipf_theta=0.8, global_cycle_us=duration_us / 2,
        ),
        cluster_config=bench_cluster_config(num_nodes),
        duration_us=duration_us,
    )


def test_ablation_fusion_capacity(run_bench):
    num_keys = GOOGLE_BENCH["num_keys"]
    capacities = [num_keys // 200, num_keys // 40, num_keys // 10]

    def experiment():
        return [_run_hermes_with(capacity) for capacity in capacities]

    results = run_bench(experiment)

    print()
    print(format_table(results, "Ablation — fusion-table capacity "
                                f"(keyspace={num_keys})"))
    for result, capacity in zip(results, capacities):
        evictions = result.evictions
        print(f"  capacity={capacity:6d} ({100 * capacity / num_keys:.1f}%) "
              f"tput={result.throughput_per_s:8.0f}/s evictions={evictions}")

    # Tiny tables evict more.
    assert results[0].evictions >= results[-1].evictions
    # Even the smallest table yields a working, performant system —
    # within 40% of the largest (paper: 2.5% capacity still outperforms
    # every baseline).
    assert results[0].throughput_per_s > results[-1].throughput_per_s * 0.6


def test_ablation_eviction_policy(run_bench):
    num_keys = GOOGLE_BENCH["num_keys"]
    capacity = num_keys // 40

    def experiment():
        return [
            _run_hermes_with(capacity, eviction)
            for eviction in ("fifo", "lru")
        ]

    results = run_bench(experiment)
    print()
    print(format_table(results, "Ablation — FIFO vs LRU eviction"))
    fifo, lru = results
    # Both policies must be viable; they stay within a modest band.
    assert min(fifo.throughput_per_s, lru.throughput_per_s) > 0
    ratio = fifo.throughput_per_s / lru.throughput_per_s
    assert 0.7 < ratio < 1.4, f"policies diverged unexpectedly: {ratio:.2f}"
