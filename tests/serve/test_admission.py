"""Admission control: per-tick cap, inflight cap, backpressure signal."""

import pytest

from repro.common.errors import ConfigurationError
from repro.serve.admission import AdmissionConfig, AdmissionController


class FakeCluster:
    def __init__(self, inflight=0):
        self.inflight = inflight


class TestConfig:
    def test_rejects_bad_caps(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_per_tick=0, max_inflight=8)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_per_tick=8, max_inflight=0)


class TestAdmission:
    def test_per_tick_cap_sheds_the_overflow(self):
        controller = AdmissionController(
            AdmissionConfig(max_per_tick=3, max_inflight=100)
        )
        cluster = FakeCluster()
        controller.begin_tick()
        decisions = [controller.admit(cluster) for _ in range(5)]
        assert decisions == [True, True, True, False, False]
        assert controller.admitted == 3
        assert controller.shed == 2

    def test_cap_resets_each_tick(self):
        controller = AdmissionController(
            AdmissionConfig(max_per_tick=1, max_inflight=100)
        )
        cluster = FakeCluster()
        for _ in range(3):
            controller.begin_tick()
            assert controller.admit(cluster)
        assert controller.admitted == 3
        assert controller.shed == 0

    def test_inflight_cap_counts_this_ticks_admissions(self):
        # 6 already inflight + 2 admitted this tick hits the cap of 8.
        controller = AdmissionController(
            AdmissionConfig(max_per_tick=100, max_inflight=8)
        )
        cluster = FakeCluster(inflight=6)
        controller.begin_tick()
        decisions = [controller.admit(cluster) for _ in range(4)]
        assert decisions == [True, True, False, False]

    def test_overloaded_signals_backpressure(self):
        controller = AdmissionController(
            AdmissionConfig(max_per_tick=100, max_inflight=4)
        )
        assert not controller.overloaded(FakeCluster(inflight=3))
        assert controller.overloaded(FakeCluster(inflight=4))
