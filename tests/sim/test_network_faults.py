"""Unit tests for network fault rules and reliable delivery."""

import pytest

from repro.common.config import CostModel, RetryPolicy
from repro.common.errors import FaultInjectionError, TimeoutExceeded
from repro.common.rng import DeterministicRNG
from repro.engine.executor import RETRY_POLICY
from repro.sim.kernel import Kernel
from repro.sim.network import Network


@pytest.fixture
def net():
    kernel = Kernel()
    costs = CostModel(net_latency_us=100.0, net_bandwidth_bytes_per_us=10.0)
    return kernel, Network(kernel, costs)


def seeded(net):
    kernel, network = net
    network.fault_rng = DeterministicRNG(42, "test-faults")
    return kernel, network


class TestBlockedLinks:
    def test_blocked_link_drops(self, net):
        kernel, network = net
        delivered = []
        network.block_links([(0, 1)])
        network.send(0, 1, 100, lambda: delivered.append("a"))
        network.send(1, 0, 100, lambda: delivered.append("b"))  # reverse ok
        kernel.run()
        assert delivered == ["b"]
        assert network.messages_dropped == 1

    def test_unblock_restores(self, net):
        kernel, network = net
        delivered = []
        network.block_links([(0, 1)])
        network.unblock_links([(0, 1)])
        network.send(0, 1, 100, lambda: delivered.append("a"))
        kernel.run()
        assert delivered == ["a"]
        assert not network.faults_active()

    def test_blocks_stack(self, net):
        _kernel, network = net
        network.block_links([(0, 1)])
        network.block_links([(0, 1)])  # overlapping partition
        network.unblock_links([(0, 1)])
        assert network.faults_active()  # one partition still holds
        network.unblock_links([(0, 1)])
        assert not network.faults_active()

    def test_self_send_never_faulted(self, net):
        kernel, network = net
        delivered = []
        network.block_links([(2, 2)])
        network.send(2, 2, 100, lambda: delivered.append("a"))
        kernel.run()
        assert delivered == ["a"]


class TestLossAndJitter:
    def test_loss_rule_drops_fraction(self, net):
        kernel, network = seeded(net)
        network.add_loss_rule(0.5)
        delivered = []
        for _ in range(200):
            network.send(0, 1, 0, lambda: delivered.append(1))
        kernel.run()
        assert 60 < len(delivered) < 140
        assert network.messages_dropped == 200 - len(delivered)

    def test_loss_rule_scoped_to_link(self, net):
        kernel, network = seeded(net)
        network.add_loss_rule(1.0, src=0, dst=1)
        delivered = []
        network.send(0, 1, 0, lambda: delivered.append("a"))
        network.send(0, 2, 0, lambda: delivered.append("b"))
        kernel.run()
        assert delivered == ["b"]

    def test_loss_without_rng_rejected(self, net):
        _kernel, network = net
        with pytest.raises(FaultInjectionError):
            network.add_loss_rule(0.5)

    def test_bad_probability_rejected(self, net):
        _kernel, network = seeded(net)
        with pytest.raises(FaultInjectionError):
            network.add_loss_rule(1.5)

    def test_jitter_delays_within_bound(self, net):
        kernel, network = seeded(net)
        network.add_jitter_rule(500.0)
        times = []
        for _ in range(50):
            network.send(0, 1, 0, lambda: times.append(kernel.now))
        kernel.run()
        assert len(times) == 50
        assert all(100.0 <= t < 600.0 for t in times)
        assert any(t > 100.0 for t in times)

    def test_remove_rule(self, net):
        kernel, network = seeded(net)
        rule = network.add_loss_rule(1.0)
        network.remove_rule(rule)
        delivered = []
        network.send(0, 1, 0, lambda: delivered.append("a"))
        kernel.run()
        assert delivered == ["a"]


class TestReliableDelivery:
    def test_fault_free_timing_matches_send(self, net):
        kernel, network = net
        times = []
        network.send_reliable(
            0, 1, 1000, lambda: times.append(kernel.now), RETRY_POLICY
        )
        kernel.run()
        assert times == [200.0]
        assert network.retries_sent == 0
        assert network.reliable_in_flight == 0

    def test_retries_through_transient_block(self, net):
        kernel, network = net
        delivered = []
        network.block_links([(0, 1)])
        policy = RetryPolicy(timeout_us=1_000.0, max_attempts=5)
        network.send_reliable(
            0, 1, 0, lambda: delivered.append(kernel.now), policy
        )
        kernel.call_later(2_500.0, network.unblock_links, [(0, 1)])
        kernel.run()
        assert len(delivered) == 1
        assert network.retries_sent >= 1
        assert network.reliable_in_flight == 0

    def test_duplicate_suppression(self, net):
        # Timeout shorter than the transfer latency: the retry races the
        # merely-slow original, both arrive, the second is suppressed.
        kernel, network = net
        delivered = []
        policy = RetryPolicy(timeout_us=50.0, max_attempts=3)
        network.send_reliable(
            0, 1, 0, lambda: delivered.append(kernel.now), policy
        )
        kernel.run()
        assert len(delivered) == 1
        assert network.duplicates_suppressed >= 1
        assert network.reliable_in_flight == 0

    def test_timeout_exceeded_raises(self, net):
        kernel, network = net
        network.block_links([(0, 1)])
        policy = RetryPolicy(timeout_us=100.0, max_attempts=3)
        network.send_reliable(0, 1, 0, lambda: None, policy)
        with pytest.raises(TimeoutExceeded) as exc:
            kernel.run()
        assert exc.value.attempts == 3
        assert network.delivery_failures == 1

    def test_on_failed_callback_instead_of_raise(self, net):
        kernel, network = net
        failures = []
        network.block_links([(0, 1)])
        policy = RetryPolicy(timeout_us=100.0, max_attempts=2)
        network.send_reliable(
            0, 1, 0, lambda: None, policy,
            on_failed=lambda: failures.append("dead"),
        )
        kernel.run()
        assert failures == ["dead"]
        assert network.reliable_in_flight == 0

    def test_self_send_reliable_is_immediate(self, net):
        kernel, network = net
        delivered = []
        network.send_reliable(
            3, 3, 100, lambda: delivered.append(kernel.now), RETRY_POLICY
        )
        kernel.run()
        assert delivered == [0.0]
        assert network.reliable_in_flight == 0
