"""Unit tests for the multi-tenant workload and its initial layouts."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    hash_partitioner,
    perfect_partitioner,
    skewed_partitioner,
)


@pytest.fixture
def config():
    return MultiTenantConfig(
        num_nodes=4,
        tenants_per_node=4,
        records_per_tenant=100,
        rotation_interval_us=1_000_000.0,
    )


@pytest.fixture
def workload(config):
    return MultiTenantWorkload(config, DeterministicRNG(11))


class TestShapes:
    def test_txn_stays_in_one_tenant(self, config, workload):
        for i in range(100):
            txn = workload.make_txn(i, 0.0)
            tenants = {k // config.records_per_tenant for k in txn.full_set}
            assert len(tenants) == 1
            assert txn.tenant == tenants.pop()
            assert len(txn.full_set) == 2
            assert txn.write_set == txn.read_set  # RMW

    def test_hot_node_rotates(self, config, workload):
        assert workload.hot_node_at(0.0) == 0
        assert workload.hot_node_at(1_500_000.0) == 1
        assert workload.hot_node_at(4_500_000.0) == 0  # wrapped

    def test_hot_share_concentrates(self, config, workload):
        hot_tenants = set(config.tenants_of_node(0))
        hot = sum(
            1
            for i in range(400)
            if workload.make_txn(i, 0.0).tenant in hot_tenants
        )
        assert hot > 400 * 0.75  # hot_share=0.9 default

    def test_fixed_hot_mode(self):
        config = MultiTenantConfig(
            num_nodes=4, tenants_per_node=2, records_per_tenant=50,
            hot_mode="fixed", fixed_hot_tenant=3, hot_share=1.0,
        )
        workload = MultiTenantWorkload(config, DeterministicRNG(2))
        assert workload.hot_node_at(99e6) == 1  # tenant 3 -> node 1
        assert all(
            workload.make_txn(i, 5e6).tenant == 3 for i in range(20)
        )


class TestLayouts:
    def test_perfect_maps_tenants_home(self, config):
        part = perfect_partitioner(config)
        for tenant in range(config.num_tenants):
            lo, hi = config.tenant_range(tenant)
            node = tenant // config.tenants_per_node
            assert part.home(lo) == node
            assert part.home(hi - 1) == node

    def test_hash_scatters(self, config):
        part = hash_partitioner(config)
        lo, hi = config.tenant_range(0)
        homes = {part.home(k) for k in range(lo, hi)}
        assert len(homes) > 1

    def test_skewed_puts_first_tenants_on_node0(self, config):
        part = skewed_partitioner(config)
        for tenant in range(7):
            lo, _hi = config.tenant_range(tenant)
            assert part.home(lo) == 0
        later_homes = {
            part.home(config.tenant_range(t)[0])
            for t in range(7, config.num_tenants)
        }
        assert 0 not in later_homes

    def test_skewed_fraction_is_large(self, config):
        part = skewed_partitioner(config)
        on_zero = sum(
            1 for k in range(config.num_keys) if part.home(k) == 0
        )
        assert on_zero / config.num_keys == pytest.approx(7 / 16, abs=0.01)


class TestValidation:
    def test_bad_hot_mode(self):
        with pytest.raises(ConfigurationError):
            MultiTenantConfig(hot_mode="sometimes")

    def test_txn_bigger_than_tenant(self):
        with pytest.raises(ConfigurationError):
            MultiTenantConfig(records_per_tenant=1)

    def test_skewed_needs_multiple_nodes(self):
        config = MultiTenantConfig(num_nodes=1, tenants_per_node=8,
                                   records_per_tenant=10)
        with pytest.raises(ConfigurationError, match="needs >= 2 nodes"):
            skewed_partitioner(config)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1_000])
def test_tenant_draw_is_randints(n):
    """The generator draws tenants with ``random.Random._randbelow(n)``,
    which is the draw ``randint(0, n - 1)`` makes in CPython: an
    interpreter that changes that would move every multitenant run, so
    it fails here first."""
    below, randint = random.Random(11), random.Random(11)
    assert [below._randbelow(n) for _ in range(500)] == [
        randint.randint(0, n - 1) for _ in range(500)
    ]
