"""Scale-in (server consolidation, §3.3): the plan drains a node's ranges."""

from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.core.provisioning import plan_consolidation
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 600


def build():
    table = FusionTable(FusionConfig(capacity=300))
    cluster = Cluster(
        ClusterConfig(
            num_nodes=3,
            engine=EngineConfig(
                epoch_us=5_000.0, workers_per_node=2,
                migration_chunk_records=50, migration_chunk_gap_us=1_000.0,
            ),
        ),
        PrescientRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
        overlay=table,
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster, table


def test_consolidation_plan_covers_static_ownership():
    cluster, _table = build()
    plan = plan_consolidation(
        2, [0, 1], cluster.ownership.static, 0, NUM_KEYS, chunk_records=64
    )
    planned = {k for chunk in plan.chunks for k in chunk.keys}
    statically_owned = {
        k for k in range(NUM_KEYS)
        if cluster.ownership.static.home(k) == 2
    }
    assert planned == statically_owned
