"""Behavioural tests for Clay's monitor/planner loop."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.rng import DeterministicRNG
from repro.baselines.clay import ClayController, ClayRouter
from repro.common.errors import ConfigurationError
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.multitenant import MultiTenantConfig, MultiTenantWorkload
from repro.workloads.base import ClosedLoopDriver

NUM_KEYS = 800


def build_clay(monitor_us=300_000.0):
    router = ClayRouter(clump_records=50)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=4,
            engine=EngineConfig(
                epoch_us=5_000.0, workers_per_node=2,
                migration_chunk_records=50, migration_chunk_gap_us=1_000.0,
            ),
        ),
        router,
        make_uniform_ranges(NUM_KEYS, 4),
    )
    cluster.load_data(range(NUM_KEYS))
    controller = ClayController(
        cluster, router, monitor_interval_us=monitor_us,
    )
    return cluster, router, controller


class TestRouterAccounting:
    def test_window_counters_accumulate(self):
        cluster, router, _controller = build_clay()
        from repro.common.types import Batch, Transaction

        batch = Batch(1, [Transaction.read_write(1, [5, 60], [5])])
        router.route_batch(batch, cluster.view)
        assert sum(router.window_node_load.values()) == pytest.approx(1.0)
        assert router.window_clump_heat[0] == 1.0  # key 5 -> clump 0
        assert router.window_clump_heat[1] == 1.0  # key 60 -> clump 1
        router.reset_window()
        assert not router.window_node_load


class TestControllerPlans:
    def test_overload_triggers_migration_plan(self):
        """A skewed workload on node 0 makes Clay move hot clumps off it."""
        config = MultiTenantConfig(
            num_nodes=4, tenants_per_node=1, records_per_tenant=200,
            hot_mode="fixed", fixed_hot_tenant=0, hot_share=0.85,
        )
        cluster, router, controller = build_clay()
        controller.start()
        workload = MultiTenantWorkload(config, DeterministicRNG(17))
        driver = ClosedLoopDriver(
            cluster, workload, num_clients=40, stop_us=2_000_000
        )
        driver.start()
        cluster.run_until_quiescent(60_000_000)
        assert controller.plans_generated >= 1
        # Some of node 0's range moved elsewhere.
        moved = [
            k for k in range(200)
            if cluster.ownership.static.home(k) != 0
        ]
        assert moved, "Clay never migrated anything off the hot node"
        assert cluster.total_records() == NUM_KEYS

    def test_balanced_load_produces_no_plan(self):
        cluster, router, controller = build_clay()
        # Perfectly even synthetic window stats.
        for node in range(4):
            router.window_node_load[node] = 10.0
        plan = controller._maybe_plan()
        assert plan is None

    def test_empty_window_produces_no_plan(self):
        _cluster, _router, controller = build_clay()
        assert controller._maybe_plan() is None

    def test_double_start_rejected(self):
        _cluster, _router, controller = build_clay()
        controller.start()
        with pytest.raises(ConfigurationError):
            controller.start()

    def test_bad_params_rejected(self):
        cluster, router, _c = build_clay()
        with pytest.raises(ConfigurationError):
            ClayController(cluster, router, monitor_interval_us=0)
