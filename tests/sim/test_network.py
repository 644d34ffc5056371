"""Unit tests for the simulated network fabric."""

import pytest

from repro.common.config import CostModel
from repro.sim.kernel import Kernel
from repro.sim.network import Network


@pytest.fixture
def net():
    kernel = Kernel()
    costs = CostModel(net_latency_us=100.0, net_bandwidth_bytes_per_us=10.0)
    return kernel, Network(kernel, costs)


class TestDelivery:
    def test_latency_plus_bandwidth(self, net):
        kernel, network = net
        delivered = []
        network.send(0, 1, 1000, lambda: delivered.append(kernel.now))
        kernel.run()
        assert delivered == [200.0]

    def test_zero_payload_pays_latency_only(self, net):
        kernel, network = net
        delivered = []
        network.send(0, 1, 0, lambda: delivered.append(kernel.now))
        kernel.run()
        assert delivered == [100.0]

    def test_self_send_is_free_and_unaccounted(self, net):
        kernel, network = net
        delivered = []
        network.send(2, 2, 5000, lambda: delivered.append(kernel.now))
        kernel.run()
        assert delivered == [0.0]
        assert network.total_bytes() == 0

    def test_negative_payload_rejected(self, net):
        _kernel, network = net
        with pytest.raises(ValueError):
            network.send(0, 1, -1, lambda: None)


class TestAccounting:
    def test_byte_counters_per_node(self, net):
        kernel, network = net
        network.send(0, 1, 300, lambda: None)
        network.send(0, 2, 200, lambda: None)
        network.send(1, 0, 100, lambda: None)
        kernel.run()
        assert network.bytes_sent[0] == 500
        assert network.bytes_sent[1] == 100
        assert network.bytes_received[1] == 300
        assert network.bytes_received[0] == 100
        assert network.total_bytes() == 600
        assert network.messages_sent[0] == 2
