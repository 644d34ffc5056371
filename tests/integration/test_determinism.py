"""End-to-end determinism: the paper's core guarantee.

Same totally ordered input ⇒ same routing ⇒ same migrations ⇒ same final
record values *and* the same physical placement, for every strategy.
"""

import pytest

from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.rng import DeterministicRNG
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.baselines.calvin import CalvinRouter
from repro.baselines.gstore import GStoreRouter
from repro.baselines.leap import LeapRouter
from repro.baselines.tpart import TPartRouter
from repro.engine.cluster import Cluster
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    perfect_partitioner,
)
from repro.workloads.base import ClosedLoopDriver

WL_CONFIG = MultiTenantConfig(
    num_nodes=3,
    tenants_per_node=2,
    records_per_tenant=200,
    rotation_interval_us=1_000_000.0,
    hot_share=0.8,
)


def run_once(make_router, overlay_factory=None, seed=11, keys=None):
    config = ClusterConfig(
        num_nodes=3,
        engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
    )
    overlay = overlay_factory() if overlay_factory else None
    cluster = Cluster(
        config, make_router(), perfect_partitioner(WL_CONFIG), overlay=overlay
    )
    cluster.load_data(range(WL_CONFIG.num_keys) if keys is None else keys)
    workload = MultiTenantWorkload(WL_CONFIG, DeterministicRNG(seed))
    driver = ClosedLoopDriver(
        cluster, workload, num_clients=30, stop_us=2_000_000
    )
    driver.start()
    cluster.run_until_quiescent(30_000_000)
    assert cluster.inflight == 0
    return cluster


STRATEGIES = [
    ("calvin", CalvinRouter, None),
    ("gstore", GStoreRouter, None),
    ("leap", LeapRouter, None),
    ("tpart", TPartRouter, None),
    (
        "hermes",
        PrescientRouter,
        lambda: FusionTable(FusionConfig(capacity=300)),
    ),
]


@pytest.mark.parametrize("name,router,overlay", STRATEGIES)
def test_two_runs_identical(name, router, overlay):
    a = run_once(router, overlay)
    b = run_once(router, overlay)
    assert a.metrics.commits == b.metrics.commits
    assert a.state_fingerprint() == b.state_fingerprint()
    assert a.placement_snapshot() == b.placement_snapshot()
    assert a.metrics.remote_reads == b.metrics.remote_reads


@pytest.mark.parametrize("name,router,overlay", STRATEGIES)
def test_records_conserved(name, router, overlay):
    cluster = run_once(router, overlay)
    assert cluster.total_records() == WL_CONFIG.num_keys
    assert cluster.lock_manager.outstanding() == 0


@pytest.mark.parametrize("name,router,overlay", STRATEGIES)
def test_store_backend_is_invisible(name, router, overlay):
    """Where the store keeps a record must not move a single observable.

    A ``range`` loads each node's keys as columnar slabs; the same keys
    as a list load one by one into the spill dict of ``Record`` objects.
    Commits, record values, physical placement and evictions match."""
    a = run_once(router, overlay)
    b = run_once(router, overlay, keys=list(range(WL_CONFIG.num_keys)))
    assert all(
        node.store.spill_size() == len(node.store) for node in b.nodes
    )
    assert a.metrics.commits == b.metrics.commits
    assert a.state_fingerprint() == b.state_fingerprint()
    assert a.placement_snapshot() == b.placement_snapshot()
    assert a.metrics.remote_reads == b.metrics.remote_reads
    assert a.metrics.evictions == b.metrics.evictions


def test_different_seeds_differ():
    """Sanity: the fingerprint is actually sensitive to the input."""
    a = run_once(CalvinRouter, seed=11)
    b = run_once(CalvinRouter, seed=12)
    assert a.state_fingerprint() != b.state_fingerprint()


def test_non_reordering_strategies_agree_on_committed_values():
    """Calvin, G-Store, LEAP, and T-Part never permute a batch, so they
    execute the same serial order and must produce identical record
    values (placement legitimately differs).  Hermes *reorders* inside
    batches — an equally valid but different serial order — so it is
    excluded here and covered by its own two-run determinism test."""
    fingerprints = {}
    for name, router, overlay in STRATEGIES:
        if name == "hermes":
            continue
        cluster = run_once(router, overlay)
        fingerprints[name] = cluster.state_fingerprint()
    assert len(set(fingerprints.values())) == 1, fingerprints
