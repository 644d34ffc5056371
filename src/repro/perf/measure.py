"""Wall-clock measurement helpers for the microbenchmarks.

A scenario is a zero-argument callable returning the number of simulator
events it drove.  ``measure`` runs it ``repeats`` times and keeps the
best (highest events/s) run — the standard way to suppress scheduler and
allocator noise when benchmarking CPU-bound Python.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable


@dataclass(slots=True)
class BenchResult:
    """One benchmark's best-of-N measurement."""

    name: str
    events: int
    wall_s: float
    events_per_s: float
    repeats: int
    profile_top: str = ""
    extras: dict = field(default_factory=dict)
    #: events/s of every round, in order (interleaved measurements only).
    rates: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_s": round(self.events_per_s, 1),
            "repeats": self.repeats,
        }
        if self.extras:
            out["extras"] = self.extras
        return out


def measure(
    name: str,
    scenario: Callable[[], int],
    *,
    repeats: int = 3,
    profile: bool = False,
) -> BenchResult:
    """Run ``scenario`` ``repeats`` times; keep the fastest run.

    With ``profile=True`` one extra (unmeasured) run executes under
    cProfile and the top functions by cumulative time are attached.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best_wall = float("inf")
    best_events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()  # sanitize: ok(bench harness measures real wall time)
        events = scenario()
        wall = time.perf_counter() - t0  # sanitize: ok(bench harness measures real wall time)
        if events <= 0:
            raise ValueError(f"scenario {name!r} reported {events} events")
        if wall / events < best_wall / max(1, best_events):
            best_wall, best_events = wall, events

    profile_top = ""
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
        scenario()
        profiler.disable()
        buffer = StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(15)
        profile_top = buffer.getvalue()

    return BenchResult(
        name=name,
        events=best_events,
        wall_s=best_wall,
        events_per_s=best_events / best_wall if best_wall > 0 else 0.0,
        repeats=repeats,
        profile_top=profile_top,
    )


def measure_interleaved(
    scenarios: dict[str, Callable[[], int]], *, repeats: int = 3
) -> dict[str, BenchResult]:
    """Best-of-N for several scenarios, measured round-robin.

    Back-to-back ``measure`` calls expose each scenario to *different*
    noise windows (CI runners see multi-percent CPU jitter on a
    seconds timescale), which makes ratios between their scores
    unreliable.  Interleaving runs every scenario once per round, so
    round ``i`` of every scenario samples the same window: each result's
    ``rates`` lists its events/s per round, for per-round ratios.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rounds: dict[str, list[tuple[float, int]]] = {
        name: [] for name in scenarios
    }
    for _ in range(repeats):
        for name, scenario in scenarios.items():
            t0 = time.perf_counter()  # sanitize: ok(bench harness measures real wall time)
            events = scenario()
            wall = time.perf_counter() - t0  # sanitize: ok(bench harness measures real wall time)
            if events <= 0:
                raise ValueError(f"scenario {name!r} reported {events} events")
            rounds[name].append((wall, events))
    results = {}
    for name, samples in rounds.items():
        wall, events = min(samples, key=lambda s: s[0] / s[1])
        results[name] = BenchResult(
            name=name,
            events=events,
            wall_s=wall,
            events_per_s=events / wall if wall > 0 else 0.0,
            repeats=repeats,
            rates=[e / w if w > 0 else 0.0 for w, e in samples],
        )
    return results
