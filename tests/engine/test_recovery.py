"""Recovery by deterministic replay (Section 4.3)."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.rng import DeterministicRNG
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.engine.recovery import replay_command_log
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.multitenant import MultiTenantConfig, MultiTenantWorkload
from repro.workloads.base import ClosedLoopDriver

WL = MultiTenantConfig(
    num_nodes=3, tenants_per_node=2, records_per_tenant=150,
    rotation_interval_us=500_000.0,
)


def builder(router_factory, overlay_factory=None, keep_log=False):
    def build():
        cluster = Cluster(
            ClusterConfig(
                num_nodes=3,
                engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
            ),
            router_factory(),
            make_uniform_ranges(WL.num_keys, 3),
            overlay=overlay_factory() if overlay_factory else None,
            keep_command_log=keep_log,
        )
        cluster.load_data(range(WL.num_keys))
        return cluster

    return build


def run_workload_on(cluster, seed=5, stop_us=1_000_000.0):
    workload = MultiTenantWorkload(WL, DeterministicRNG(seed))
    driver = ClosedLoopDriver(cluster, workload, num_clients=20, stop_us=stop_us)
    driver.start()
    cluster.run_until_quiescent(60_000_000)
    assert cluster.inflight == 0


@pytest.mark.parametrize(
    "router_factory,overlay_factory",
    [
        (CalvinRouter, None),
        (PrescientRouter, lambda: FusionTable(FusionConfig(capacity=200))),
    ],
)
def test_full_replay_reaches_identical_state(router_factory, overlay_factory):
    build_original = builder(router_factory, overlay_factory, keep_log=True)
    original = build_original()
    run_workload_on(original)

    replayed = replay_command_log(
        builder(router_factory, overlay_factory), original.command_log
    )
    assert replayed.state_fingerprint() == original.state_fingerprint()
    assert replayed.placement_snapshot() == original.placement_snapshot()


def test_replay_with_empty_log_is_initial_state():
    build = builder(CalvinRouter, keep_log=True)
    original = build()
    replayed = replay_command_log(build, original.command_log)
    assert replayed.state_fingerprint() == original.state_fingerprint()
