"""Scheduler-pipeline behaviour: serial routing and batch ordering."""

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.types import Transaction
from repro.core.router import Router
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.storage.partitioning import make_uniform_ranges


class SlowRouter(Router):
    """Calvin routing with an artificially large fixed routing cost."""

    name = "slow"

    def __init__(self, cost_us: float) -> None:
        self.cost_us = cost_us
        self.inner = CalvinRouter()
        self.routed_epochs: list[int] = []

    def routing_cost_us(self, batch_size: int, costs) -> float:
        return self.cost_us

    def route_batch(self, batch, view):
        self.routed_epochs.append(batch.epoch)
        return self.inner.route_batch(batch, view)


def build(router, epoch_us=2_000.0, max_batch=5):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=2,
            engine=EngineConfig(
                epoch_us=epoch_us, workers_per_node=2,
                max_batch_size=max_batch,
            ),
        ),
        router,
        make_uniform_ranges(100, 2),
    )
    cluster.load_data(range(100))
    return cluster


class TestSerialScheduler:
    def test_routing_slower_than_epoch_backlogs_dispatch(self):
        """With routing cost 3x the epoch, the serial scheduler becomes
        the bottleneck: commits trail far behind sequencing."""
        slow = SlowRouter(cost_us=6_000.0)
        cluster = build(slow, epoch_us=2_000.0)
        for i in range(1, 31):
            cluster.submit(Transaction.read_write(i, [i], [i]))
        # 30 txns over 5-txn batches = 6 batches; at 6 ms of serial
        # routing each, only ~3 batches' worth can dispatch by 20 ms.
        cluster.run_until(20_000.0)
        assert cluster.metrics.batches >= 3
        dispatched = cluster._next_seq
        assert dispatched < 30, "dispatch should trail sequencing"
        cluster.run_until_quiescent(10_000_000)
        assert cluster.metrics.commits == 30

    def test_cheap_routing_keeps_up(self):
        fast = SlowRouter(cost_us=10.0)
        cluster = build(fast, epoch_us=2_000.0)
        for i in range(1, 31):
            cluster.submit(Transaction.read_write(i, [i], [i]))
        end = cluster.run_until_quiescent(10_000_000, poll_us=2_000.0)
        # Everything commits well within a few epochs.
        assert end < 50_000.0
        assert cluster.metrics.commits == 30

    def test_batches_route_in_epoch_order(self):
        slow = SlowRouter(cost_us=5_000.0)
        cluster = build(slow, epoch_us=1_000.0)
        for i in range(1, 21):
            cluster.submit(Transaction.read_write(i, [i], [i]))
        cluster.run_until_quiescent(10_000_000)
        assert slow.routed_epochs == sorted(slow.routed_epochs)

    def test_lock_order_preserved_under_backlog(self):
        """Even with dispatch delayed by routing, conflicting txns across
        batches still serialize in total order."""
        slow = SlowRouter(cost_us=4_000.0)
        cluster = build(slow, epoch_us=1_000.0)
        for i in range(1, 16):
            cluster.submit(Transaction.read_write(i, [7], [7]))
        cluster.run_until_quiescent(10_000_000)
        assert cluster.nodes[0].store.read(7).version == 15
        assert cluster.lock_manager.outstanding() == 0
