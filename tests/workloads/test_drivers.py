"""Tests for the open- and closed-loop client drivers."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.base import ClosedLoopDriver, OpenLoopDriver


class CountingWorkload:
    """Minimal workload: single-key read-write txns, round-robin keys."""

    def __init__(self, num_keys=100):
        self.num_keys = num_keys
        self.minted = 0

    def make_txn(self, txn_id, now_us):
        self.minted += 1
        key = txn_id % self.num_keys
        return Transaction.read_write(txn_id, [key], [key],
                                      arrival_time=now_us)


@pytest.fixture
def cluster():
    c = Cluster(
        ClusterConfig(
            num_nodes=2,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        CalvinRouter(),
        make_uniform_ranges(100, 2),
    )
    c.load_data(range(100))
    return c


class TestOpenLoop:
    def test_rate_controls_volume(self, cluster):
        workload = CountingWorkload()
        driver = OpenLoopDriver(
            cluster, workload, rate_per_s=1_000.0,
            rng=DeterministicRNG(1), stop_us=1_000_000.0,
        )
        driver.start()
        cluster.run_until_quiescent(30_000_000)
        # ~1000 arrivals expected over 1 simulated second.
        assert 800 < driver.submitted < 1200
        assert cluster.metrics.commits == driver.submitted

    def test_time_varying_rate(self, cluster):
        workload = CountingWorkload()

        def rate(now_us):
            return 2_000.0 if now_us < 500_000 else 0.0

        driver = OpenLoopDriver(
            cluster, workload, rate, DeterministicRNG(1), stop_us=1_000_000.0
        )
        driver.start()
        cluster.run_until_quiescent(30_000_000)
        assert 700 < driver.submitted < 1400

    def test_deterministic_arrivals(self):
        counts = []
        for _run in range(2):
            c = Cluster(
                ClusterConfig(
                    num_nodes=2,
                    engine=EngineConfig(epoch_us=5_000.0),
                ),
                CalvinRouter(),
                make_uniform_ranges(100, 2),
            )
            c.load_data(range(100))
            driver = OpenLoopDriver(
                c, CountingWorkload(), 500.0, DeterministicRNG(7),
                stop_us=500_000.0,
            )
            driver.start()
            c.run_until_quiescent(30_000_000)
            counts.append(driver.submitted)
        assert counts[0] == counts[1]

    def test_bad_args(self, cluster):
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(cluster, CountingWorkload(), 0.0,
                           DeterministicRNG(1), stop_us=1000.0)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(cluster, CountingWorkload(), 10.0,
                           DeterministicRNG(1), stop_us=0.0)


class TestClosedLoop:
    def test_one_outstanding_per_client(self, cluster):
        workload = CountingWorkload()
        driver = ClosedLoopDriver(
            cluster, workload, num_clients=10, stop_us=200_000.0
        )
        driver.start()
        cluster.run_until(1_000.0)
        # Before anything commits, exactly num_clients submitted.
        assert driver.submitted == 10
        cluster.run_until_quiescent(30_000_000)
        assert cluster.metrics.commits == driver.submitted

    def test_bad_args(self, cluster):
        with pytest.raises(ConfigurationError):
            ClosedLoopDriver(cluster, CountingWorkload(), 0, stop_us=1000.0)
