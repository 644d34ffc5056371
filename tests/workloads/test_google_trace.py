"""Unit tests for the synthetic Google cluster trace."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.workloads.google_trace import GoogleTraceConfig, SyntheticGoogleTrace


@pytest.fixture
def trace():
    config = GoogleTraceConfig(num_machines=6, duration_s=300, tick_s=5)
    return SyntheticGoogleTrace(config, DeterministicRNG(3))


class TestGeneration:
    def test_shape(self, trace):
        assert trace.loads.shape == (6, 60)

    def test_loads_positive(self, trace):
        assert (trace.loads > 0).all()

    def test_deterministic(self):
        config = GoogleTraceConfig(num_machines=4, duration_s=100, tick_s=5)
        a = SyntheticGoogleTrace(config, DeterministicRNG(9))
        b = SyntheticGoogleTrace(config, DeterministicRNG(9))
        assert np.array_equal(a.loads, b.loads)

    def test_different_seeds_differ(self):
        config = GoogleTraceConfig(num_machines=4, duration_s=100, tick_s=5)
        a = SyntheticGoogleTrace(config, DeterministicRNG(9))
        b = SyntheticGoogleTrace(config, DeterministicRNG(10))
        assert not np.array_equal(a.loads, b.loads)

    def test_machines_are_heterogeneous(self, trace):
        means = trace.loads.mean(axis=1)
        assert means.std() > 0.01

    def test_has_fluctuation_over_time(self, trace):
        assert trace.loads.std(axis=1).max() > 0.05


class TestQueries:
    def test_weights_sum_to_one(self, trace):
        weights = trace.weights_at(50e6)
        assert weights.sum() == pytest.approx(1.0)

    def test_tick_clamping(self, trace):
        assert trace.tick_of(-5) == 0
        assert trace.tick_of(1e12) == 59

    def test_sample_machine_follows_weights(self, trace):
        rng = DeterministicRNG(4)
        counts = np.zeros(6)
        for _ in range(4000):
            counts[trace.sample_machine(100e6, rng.random())] += 1
        empirical = counts / counts.sum()
        expected = trace.weights_at(100e6)
        assert np.abs(empirical - expected).max() < 0.05

    def test_total_load_is_sum(self, trace):
        assert trace.total_load_at(0) == pytest.approx(
            float(trace.loads[:, 0].sum())
        )


class TestConfigValidation:
    def test_rejects_zero_machines(self):
        with pytest.raises(ConfigurationError):
            GoogleTraceConfig(num_machines=0)

    def test_rejects_bad_phi(self):
        with pytest.raises(ConfigurationError):
            GoogleTraceConfig(noise_phi=1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            GoogleTraceConfig(duration_s=0)
