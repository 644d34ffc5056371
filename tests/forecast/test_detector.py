"""MispredictDetector hysteresis unit tests."""

import pytest

from repro.common.errors import ConfigurationError
from repro.forecast.detector import MispredictDetector


def make(**kw):
    defaults = dict(
        engage_threshold=0.4,
        recover_threshold=0.15,
        engage_epochs=3,
        recover_epochs=3,
        alpha=1.0,  # EWMA == raw error: thresholds act on the raw signal
    )
    defaults.update(kw)
    return MispredictDetector(**defaults)


class TestValidation:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            MispredictDetector(engage_threshold=0.2, recover_threshold=0.3)

    def test_thresholds_must_not_be_equal(self):
        with pytest.raises(ConfigurationError):
            MispredictDetector(engage_threshold=0.3, recover_threshold=0.3)

    def test_epoch_counts_positive(self):
        with pytest.raises(ConfigurationError):
            MispredictDetector(engage_epochs=0)
        with pytest.raises(ConfigurationError):
            MispredictDetector(recover_epochs=0)

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            MispredictDetector(alpha=0.0)
        with pytest.raises(ConfigurationError):
            MispredictDetector(alpha=1.5)

    def test_error_must_be_normalized(self):
        detector = make()
        with pytest.raises(ConfigurationError):
            detector.observe(1.5)
        with pytest.raises(ConfigurationError):
            detector.observe(-0.1)


class TestEngage:
    def test_engages_after_consecutive_bad_epochs(self):
        detector = make()
        assert detector.observe(0.9) is None
        assert detector.observe(0.9) is None
        assert detector.observe(0.9) == "engage"
        assert detector.engaged

    def test_brief_spike_does_not_engage(self):
        detector = make()
        signals = [
            detector.observe(e)
            for e in (0.9, 0.9, 0.05, 0.9, 0.9, 0.05, 0.9, 0.9)
        ]
        assert signals == [None] * 8
        assert not detector.engaged

    def test_engage_fires_once(self):
        detector = make()
        signals = [detector.observe(0.9) for _ in range(6)]
        assert signals.count("engage") == 1


class TestRecover:
    def engaged_detector(self):
        detector = make()
        for _ in range(3):
            detector.observe(0.9)
        assert detector.engaged
        return detector

    def test_recovers_after_consecutive_good_epochs(self):
        detector = self.engaged_detector()
        assert detector.observe(0.05) is None
        assert detector.observe(0.05) is None
        assert detector.observe(0.05) == "recover"
        assert not detector.engaged

    def test_dead_band_blocks_recovery(self):
        """Errors between the thresholds neither engage nor recover."""
        detector = self.engaged_detector()
        for _ in range(10):
            assert detector.observe(0.25) is None
        assert detector.engaged

    def test_good_streak_resets_on_bad_epoch(self):
        detector = self.engaged_detector()
        detector.observe(0.05)
        detector.observe(0.05)
        detector.observe(0.9)  # streak broken
        assert detector.observe(0.05) is None
        assert detector.observe(0.05) is None
        assert detector.observe(0.05) == "recover"

    def test_can_reengage_after_recovery(self):
        detector = self.engaged_detector()
        for _ in range(3):
            detector.observe(0.05)
        assert not detector.engaged
        signals = [detector.observe(0.9) for _ in range(3)]
        assert signals[-1] == "engage"


class TestSmoothing:
    def test_ewma_delays_engagement(self):
        """With alpha < 1 a single clean epoch drags the EWMA down, so
        engagement needs a sustained error, not three noisy spikes."""
        detector = make(alpha=0.3)
        # First observation seeds the EWMA low.
        detector.observe(0.0)
        signals = [detector.observe(0.9) for _ in range(8)]
        assert "engage" in signals
        # But it took more than three epochs of raw-signal badness.
        assert signals.index("engage") >= 3

    def test_seed_epoch_uses_raw_error(self):
        detector = make(alpha=0.5)
        detector.observe(0.8)
        assert detector.ewma == pytest.approx(0.8)
