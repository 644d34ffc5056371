"""Synthetic Google cluster-usage traces (substitute for [Reiss et al. 2011]).

The paper drives its headline experiments with per-machine CPU-load
series from the 2011 Google cluster trace (Figure 1), downscaled from 3
days to 2160 emulated seconds.  The trace itself is not available
offline, so this module synthesizes series with the same statistical
features the paper calls out:

* a per-machine baseline load (machines are heterogeneous),
* short-timescale fluctuation (AR(1) noise),
* **episodic spikes** — sudden bursts that are not predictable from the
  past, the feature that defeats look-back re-partitioning,
* **regime shifts** — the baseline occasionally re-draws, modelling
  dynamic machine re-provisioning, including near-idle periods.

The trace exposes exactly the two signals the paper's workload consumes:
per-machine load *weights* over time (which machine receives each local
transaction) and the total load curve (the offered rate envelope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG

if TYPE_CHECKING:
    import numpy as np


# Figure 1's calibration: the shape of every machine's series, as the
# module docstring lists it.  Only the spike and shift counts are fields:
# they scale with the window (:func:`repro.bench.presets.
# bench_trace_config`).

#: A machine's baseline load is uniform on ``[BASE_LOAD_LO, BASE_LOAD_HI)``.
BASE_LOAD_LO = 0.15
BASE_LOAD_HI = 0.55
#: AR(1) fluctuation around the baseline: coefficient and noise sigma.
NOISE_PHI = 0.9
NOISE_SIGMA = 0.06
#: A spike adds a load uniform on ``[SPIKE_MAGNITUDE_LO,
#: SPIKE_MAGNITUDE_HI)`` for ``1 + Exp(SPIKE_DURATION_TICKS_MEAN)`` ticks.
SPIKE_MAGNITUDE_LO = 0.4
SPIKE_MAGNITUDE_HI = 1.4
SPIKE_DURATION_TICKS_MEAN = 10.0
#: Probability a regime shift parks the machine near idle.
IDLE_SHIFT_PROB = 0.25


@dataclass(frozen=True, slots=True)
class GoogleTraceConfig:
    """Size and event density of the synthetic trace."""

    num_machines: int = 20
    duration_s: float = 2160.0
    """Emulated duration (the paper's downscaled 3 days)."""

    tick_s: float = 15.0
    """Resolution of the load series (the paper plots 15 s windows)."""

    spikes_per_machine: float = 12.0
    """Expected episodic spikes per machine over the whole trace."""

    shifts_per_machine: float = 3.0
    """Expected provisioning regime shifts per machine."""

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ConfigurationError("need at least one machine")
        if self.duration_s <= 0 or self.tick_s <= 0:
            raise ConfigurationError("duration and tick must be positive")

    @property
    def num_ticks(self) -> int:
        return max(1, int(self.duration_s / self.tick_s))


class SyntheticGoogleTrace:
    """Per-machine load series with spikes and provisioning shifts."""

    def __init__(self, config: GoogleTraceConfig, rng: DeterministicRNG):
        import numpy as np

        self.config = config
        self._rng = rng.fork("google-trace")
        self.loads = self._generate()
        # Row-normalized weights per tick (which machine gets a local txn).
        totals = self.loads.sum(axis=0)
        totals[totals <= 0] = 1.0
        self.weights = self.loads / totals
        self._cum_weights = np.cumsum(self.weights, axis=0)

    def _generate(self) -> np.ndarray:
        import numpy as np

        cfg = self.config
        ticks = cfg.num_ticks
        loads = np.zeros((cfg.num_machines, ticks))
        for machine in range(cfg.num_machines):
            mrng = self._rng.fork("machine", machine)
            base = mrng.np.uniform(BASE_LOAD_LO, BASE_LOAD_HI)

            # Regime shifts: piecewise-constant baseline.
            baseline = np.full(ticks, base)
            num_shifts = mrng.np.poisson(cfg.shifts_per_machine)
            for _shift in range(num_shifts):
                at = int(mrng.np.integers(0, ticks))
                if mrng.np.random() < IDLE_SHIFT_PROB:
                    level = 0.03
                else:
                    level = mrng.np.uniform(BASE_LOAD_LO, BASE_LOAD_HI)
                baseline[at:] = level

            # AR(1) fluctuation around the baseline.
            noise = np.zeros(ticks)
            eps = mrng.np.normal(0.0, NOISE_SIGMA, size=ticks)
            for t in range(1, ticks):
                noise[t] = NOISE_PHI * noise[t - 1] + eps[t]

            series = baseline + noise

            # Episodic spikes: additive bursts with geometric-ish duration.
            num_spikes = mrng.np.poisson(cfg.spikes_per_machine)
            for _spike in range(num_spikes):
                at = int(mrng.np.integers(0, ticks))
                duration = 1 + int(
                    mrng.np.exponential(SPIKE_DURATION_TICKS_MEAN)
                )
                magnitude = mrng.np.uniform(
                    SPIKE_MAGNITUDE_LO, SPIKE_MAGNITUDE_HI
                )
                series[at : at + duration] += magnitude

            loads[machine] = np.clip(series, 0.01, None)
        return loads

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tick_of(self, now_us: float) -> int:
        """The trace tick containing simulated time ``now_us``."""
        tick = int(now_us / 1e6 / self.config.tick_s)
        return min(max(tick, 0), self.config.num_ticks - 1)

    def total_load_at(self, now_us: float) -> float:
        """Cluster-wide load level (offered-rate envelope)."""
        return float(self.loads[:, self.tick_of(now_us)].sum())

    def weights_at(self, now_us: float) -> np.ndarray:
        """Per-machine probability weights at a time (sums to 1)."""
        return self.weights[:, self.tick_of(now_us)]

    def sample_machine(self, now_us: float, u: float) -> int:
        """Inverse-CDF draw of a machine given uniform ``u`` in [0,1)."""
        column = self._cum_weights[:, self.tick_of(now_us)]
        return int(column.searchsorted(u, side="left"))
