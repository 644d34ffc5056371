"""Mispredict detection with hysteresis.

Each epoch the :class:`~repro.forecast.router.ForecastRouter` compares
the forecasted routing footprint against the observed batch and feeds
the resulting error (mean per-transaction Jaccard distance, in [0, 1])
to a :class:`MispredictDetector`.  The detector smooths the signal with
an EWMA and applies *two-sided hysteresis*: fallback engages only after
``engage_epochs`` consecutive epochs above the engage threshold, and
recovers only after ``recover_epochs`` consecutive epochs below the
(strictly lower) recover threshold.  The dead band between the two
thresholds prevents mode flapping when forecast quality hovers near the
boundary — every flap cancels in-flight migrations and costs real work.

The detector is a pure function of the error sequence: no clocks, no
randomness, so the fallback schedule is deterministic and replays
identically under the sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

__all__ = ["MispredictDetector"]


@dataclass(slots=True)
class MispredictDetector:
    """Hysteresis-filtered forecast-quality monitor."""

    engage_threshold: float = 0.4
    """Smoothed error above this marks an epoch as mispredicted."""

    recover_threshold: float = 0.15
    """Smoothed error below this marks an epoch as recovered."""

    engage_epochs: int = 3
    """Consecutive bad epochs required before engaging fallback."""

    recover_epochs: int = 3
    """Consecutive good epochs required before leaving fallback."""

    alpha: float = 0.5
    """EWMA smoothing factor applied to the raw per-epoch error."""

    ewma: float = 0.0
    engaged: bool = False
    epochs_observed: int = 0
    _bad_streak: int = field(default=0, repr=False)
    _good_streak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.recover_threshold < self.engage_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 <= recover_threshold < engage_threshold <= 1"
            )
        if self.engage_epochs < 1 or self.recover_epochs < 1:
            raise ConfigurationError("hysteresis epoch counts must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")

    def observe(self, error: float) -> str | None:
        """Fold one epoch's error in; return ``"engage"``/``"recover"``
        on a state transition, else ``None``."""
        if not 0.0 <= error <= 1.0:
            raise ConfigurationError(f"error {error!r} outside [0, 1]")
        if self.epochs_observed == 0:
            self.ewma = error
        else:
            self.ewma = self.alpha * error + (1.0 - self.alpha) * self.ewma
        self.epochs_observed += 1

        if not self.engaged:
            if self.ewma > self.engage_threshold:
                self._bad_streak += 1
            else:
                self._bad_streak = 0
            if self._bad_streak >= self.engage_epochs:
                self.engaged = True
                self._bad_streak = 0
                return "engage"
            return None

        if self.ewma < self.recover_threshold:
            self._good_streak += 1
        else:
            self._good_streak = 0
        if self._good_streak >= self.recover_epochs:
            self.engaged = False
            self._good_streak = 0
            return "recover"
        return None
