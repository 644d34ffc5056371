"""Validation behaviour of the configuration dataclasses."""

import pytest

from repro.common.config import (
    ClusterConfig,
    CostModel,
    EngineConfig,
    FusionConfig,
    RoutingConfig,
)
from repro.common.errors import ConfigurationError


class TestCostModel:
    def test_defaults_valid(self):
        CostModel()

    def test_transfer_includes_latency_and_bandwidth(self):
        costs = CostModel(net_latency_us=100.0, net_bandwidth_bytes_per_us=10.0)
        assert costs.transfer_us(1000) == pytest.approx(200.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            CostModel(local_access_us=-1.0)

    @pytest.mark.parametrize(
        "field",
        ["net_latency_us", "logic_us_per_record", "sequencer_latency_us"],
    )
    def test_each_field_validated(self, field):
        with pytest.raises(ConfigurationError):
            CostModel(**{field: -0.1})


class TestRoutingConfig:
    def test_alpha_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            RoutingConfig(alpha=-0.5)

    def test_flags_default_on(self):
        config = RoutingConfig()
        assert config.reorder and config.balance


class TestFusionConfig:
    def test_unknown_eviction_rejected(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(eviction="random")

    def test_zero_capacity_means_unbounded(self):
        assert FusionConfig(capacity=0).capacity == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FusionConfig(capacity=-1)


class TestEngineConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(workers_per_node=0)

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(epoch_us=0)


class TestClusterConfig:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=0)

    def test_nested_defaults(self):
        config = ClusterConfig()
        assert config.engine.workers_per_node >= 1
        assert config.costs.net_latency_us > 0
