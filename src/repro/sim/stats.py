"""Metric collection: time series, windowed rates, and latency breakdowns.

The benchmark harness reads these to print the same series the paper
plots: throughput per window (Figures 2, 6, 12, 14), latency breakdowns
(Figure 7), and CPU/network usage (Figure 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class TimeSeries:
    """Append-only (time, value) series."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)


class WindowedRate:
    """Counts events into fixed-width windows of simulated time.

    ``series(until)`` converts the raw window counts into a rate-per-window
    time series, padding empty windows with zeros — a stalled system shows
    up as a dip, not a gap, exactly as in the paper's throughput plots.
    """

    __slots__ = ("name", "window_us", "_counts")

    def __init__(self, name: str, window_us: float) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.name = name
        self.window_us = window_us
        self._counts: dict[int, float] = {}

    def record(self, time: float, amount: float = 1.0) -> None:
        index = int(time // self.window_us)
        self._counts[index] = self._counts.get(index, 0.0) + amount

    def series(self, until: float, since: float = 0.0) -> TimeSeries:
        """Materialize counts per window over [since, until)."""
        out = TimeSeries(self.name)
        first = int(since // self.window_us)
        last = max(first, int(math.ceil(until / self.window_us)))
        for index in range(first, last):
            mid = (index + 0.5) * self.window_us
            out.record(mid, self._counts.get(index, 0.0))
        return out

    def total(self) -> float:
        return sum(self._counts.values())


#: The latency buckets of the paper's Figure 7, in presentation order.
LATENCY_STAGES = (
    "scheduling",
    "lock_wait",
    "local_storage",
    "remote_wait",
    "other",
)


@dataclass(slots=True)
class LatencyBreakdown:
    """Accumulates per-stage latency sums and the committed-txn count."""

    sums: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in LATENCY_STAGES}
    )
    count: int = 0

    def add(
        self,
        scheduling: float,
        lock_wait: float,
        local_storage: float,
        remote_wait: float,
        other: float,
    ) -> None:
        """Add one commit's five stage times, in :data:`LATENCY_STAGES`
        order, without building a dict.  Every value must be
        non-negative; the engine clamps each stage where it computes it."""
        sums = self.sums
        sums["scheduling"] += scheduling
        sums["lock_wait"] += lock_wait
        sums["local_storage"] += local_storage
        sums["remote_wait"] += remote_wait
        sums["other"] += other
        self.count += 1

    def averages(self) -> dict[str, float]:
        """Mean per-stage latency in microseconds (zeros when empty)."""
        if self.count == 0:
            return {stage: 0.0 for stage in LATENCY_STAGES}
        return {stage: self.sums[stage] / self.count for stage in LATENCY_STAGES}
