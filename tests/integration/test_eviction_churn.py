"""Regression: fusion-table eviction under churn (tiny tables, hot writes).

Found in the wild: a transaction's fusion insert can evict a key the
*same transaction* re-inserts later in its write loop; planning an
eviction for it would chase a record that has already moved with the
transaction's own migration.

These tests hammer that path with tiny tables and assert the global
invariants: record conservation, clean locks, and view/physical
agreement for every key.
"""

import random

import pytest

from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.types import Transaction
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 300


def build(capacity, eviction):
    table = FusionTable(FusionConfig(capacity=capacity, eviction=eviction))
    cluster = Cluster(
        ClusterConfig(
            num_nodes=3,
            engine=EngineConfig(
                epoch_us=3_000.0, workers_per_node=2,
                migration_chunk_records=20, migration_chunk_gap_us=500.0,
            ),
        ),
        PrescientRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
        overlay=table,
        validate_plans=True,
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster, table


def assert_invariants(cluster):
    assert cluster.total_records() == NUM_KEYS
    assert cluster.lock_manager.outstanding() == 0
    placement = cluster.placement_snapshot()
    for key in range(NUM_KEYS):
        owner = cluster.ownership.owner(key)
        assert key in placement[owner], (
            f"view says key {key} at node {owner}, physically elsewhere"
        )


@pytest.mark.parametrize("eviction", ["fifo", "lru"])
@pytest.mark.parametrize("seed", [2, 5])
def test_tiny_table_random_write_churn(eviction, seed):
    cluster, _table = build(capacity=8, eviction=eviction)
    rng = random.Random(seed)
    for i in range(1, 300):
        a, b = rng.randrange(NUM_KEYS), rng.randrange(NUM_KEYS)
        cluster.submit(Transaction.read_write(i, [a, b], [a, b]))
    cluster.run_until_quiescent(180_000_000)
    assert_invariants(cluster)


def test_capacity_smaller_than_write_set():
    """A single transaction whose write-set exceeds the whole table."""
    cluster, table = build(capacity=2, eviction="fifo")
    # Cross-node writes: five keys fused onto one master through a table
    # of capacity two — the same-transaction re-insert case, guaranteed.
    keys = [5, 105, 205, 6, 106]
    cluster.submit(
        Transaction.read_write(1, keys, keys)
    )
    cluster.submit(Transaction.read_write(2, [7, 107], [7, 107]))
    cluster.run_until_quiescent(60_000_000)
    assert_invariants(cluster)
    assert len(table) <= 2
