"""Unit tests for the TPC-C workload model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.workloads import tpcc
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    tpcc_partitioner,
    warehouse_of_key,
)


@pytest.fixture
def config():
    return TPCCConfig(num_warehouses=40, num_nodes=4)


@pytest.fixture
def workload(config):
    return TPCCWorkload(config, DeterministicRNG(21))


class TestConfig:
    def test_warehouses_must_divide(self):
        with pytest.raises(ConfigurationError):
            TPCCConfig(num_warehouses=10, num_nodes=4)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            TPCCConfig(num_warehouses=40, num_nodes=4, hot_fraction=1.5)


class TestPartitioner:
    def test_warehouse_subtree_colocated(self, config):
        part = tpcc_partitioner(config)
        w = 17
        node = part.home(("wh", w))
        assert part.home(("dist", w, 0)) == node
        assert part.home(("cust", w, 3, 5)) == node
        assert part.home(("stock", w, 42)) == node

    def test_warehouses_spread_over_nodes(self, config):
        part = tpcc_partitioner(config)
        homes = {part.home(("wh", w)) for w in range(40)}
        assert homes == {0, 1, 2, 3}

    def test_warehouse_of_key(self):
        assert warehouse_of_key(("stock", 7, 3)) == 7
        assert warehouse_of_key(("wh", 2)) == 2


class TestTransactionShapes:
    def test_new_order_footprint(self, config, workload):
        txns = [workload._new_order(i, 0.0) for i in range(50)]
        for txn in txns:
            # warehouse + district + customer + 5..15 stock rows
            assert 8 <= len(txn.full_set) <= 18
            assert ("dist",) == tuple(
                k[0] for k in txn.write_set if k[0] == "dist"
            )[:1]
            stock_writes = [k for k in txn.write_set if k[0] == "stock"]
            assert 5 <= len(stock_writes) <= 15
            assert txn.profile.logic_factor > 1.0

    def test_payment_footprint(self, config, workload):
        txn = workload._payment(1, 0.0)
        kinds = {k[0] for k in txn.full_set}
        assert kinds == {"wh", "dist", "cust"}
        assert txn.write_set == txn.read_set

    def test_mix_contains_both_types(self, workload):
        txns = [workload.make_txn(i, 0.0) for i in range(100)]
        sizes = [t.size for t in txns]
        assert any(s <= 3 for s in sizes)      # payments
        assert any(s >= 8 for s in sizes)      # new-orders

    def test_remote_items_cross_warehouses(self, config, monkeypatch):
        monkeypatch.setattr(tpcc, "REMOTE_ITEM_PROB", 0.5)
        workload = TPCCWorkload(config, DeterministicRNG(3))
        crossing = 0
        for i in range(50):
            txn = workload._new_order(i, 0.0)
            warehouses = {warehouse_of_key(k) for k in txn.full_set}
            if len(warehouses) > 1:
                crossing += 1
        assert crossing > 10

    def test_hot_fraction_concentrates_on_node0(self, config):
        hot_config = TPCCConfig(
            num_warehouses=40, num_nodes=4, hot_fraction=0.9
        )
        workload = TPCCWorkload(hot_config, DeterministicRNG(5))
        part = tpcc_partitioner(hot_config)
        on_node0 = 0
        total = 300
        for i in range(total):
            txn = workload.make_txn(i, 0.0)
            home_w = min(warehouse_of_key(k) for k in txn.write_set)
            if part.home(("wh", home_w)) == 0:
                on_node0 += 1
        assert on_node0 > total * 0.6

    def test_deterministic(self, config):
        a = TPCCWorkload(config, DeterministicRNG(9))
        b = TPCCWorkload(config, DeterministicRNG(9))
        for i in range(20):
            ta, tb = a.make_txn(i, 0.0), b.make_txn(i, 0.0)
            assert ta.read_set == tb.read_set
            assert ta.write_set == tb.write_set


class TestLoading:
    def test_all_keys_count(self, config):
        keys = list(TPCCWorkload(config, DeterministicRNG(1)).all_keys())
        per_warehouse = 1 + 10 * (1 + 30) + 1000
        assert len(keys) == 40 * per_warehouse
        assert len(set(keys)) == len(keys)
