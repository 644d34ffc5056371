"""Typed metrics registry: counters, gauges, and histograms with labels.

The registry is the one place run-level metrics live.  Engine components
create *instruments* once (``registry.counter("txn_commits_total")``) and
update them on the hot path through plain attribute mutation — no string
lookups per update, no locks (the simulator is single-threaded), and no
wall-clock anywhere, so a registry snapshot is a pure function of the
simulated execution and therefore deterministic across runs.

Labels pick out one instrument of a family: ``registry.gauge(
"queue_depth", node="3")`` and ``registry.gauge("queue_depth", node="4")``
are distinct instruments under one name.  ``common_labels`` (e.g. the
strategy name the harness stamps on every run) are merged into every
snapshot row, which is how per-strategy ratios stay comparable across a
sweep without threading the strategy through every component.

:class:`~repro.engine.metrics.ClusterMetrics` is a facade over one of
these registries; ad-hoc experiment code can read the registry directly
via ``cluster.metrics.registry``.
"""

from __future__ import annotations

import math
from typing import Iterable

#: label key → value pairs, canonicalized to a sorted tuple for identity.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} can only increase")
        self.value += amount

    add = inc  # the coordinators count records and chunks with ``add``

    def set_total(self, total: float) -> None:
        """Raise the counter to an absolute total (facade ``+=`` support)."""
        if total < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot decrease "
                f"({self.value} -> {total})"
            )
        self.value = total


class Gauge:
    """A value that can go up and down (queue depth, table size)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution: keeps every observation for exact percentiles.

    Observations are stored (floats are cheap and runs are bounded), so
    percentiles are exact nearest-rank sample points — deterministic, no
    interpolation, directly comparable across runs.
    """

    __slots__ = ("name", "labels", "values", "sum")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.values: list[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.values.append(value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return self.sum / len(self.values)

    def percentiles(
        self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[float, float]:
        """Nearest-rank percentiles as a plain dict keyed by float."""
        for q in quantiles:
            if not 0 < q <= 1:
                raise ValueError("quantile must be in (0, 1]")
        ordered = sorted(self.values)
        n = len(ordered)
        if n == 0:
            return {q: 0.0 for q in quantiles}
        return {q: ordered[max(0, math.ceil(q * n) - 1)] for q in quantiles}


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """A collection of named, labelled instruments for one run."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        #: merged into every snapshot row (e.g. ``strategy="hermes"``).
        self.common_labels: dict[str, str] = {}

    # -- instrument factories (idempotent per (name, labels)) ------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_make(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_make(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get_or_make(Histogram, name, labels)

    def _get_or_make(self, cls, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(name, key[1])
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> Iterable[Instrument]:
        """Every instrument, in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def find(self, name: str) -> list[Instrument]:
        """All instruments registered under ``name`` (any labels)."""
        return [
            inst for (n, _), inst in sorted(self._instruments.items())
            if n == name
        ]

    def snapshot(self) -> list[dict]:
        """Flat, deterministic dump of every instrument.

        One row per instrument: ``{"name", "kind", "labels", "value"}``
        (histograms carry ``count``/``sum``/``mean``/``p50``/``p95``/
        ``p99`` instead of ``value``).  Rows are sorted by (name,
        labels) so two identical runs snapshot byte-identically.
        """
        rows: list[dict] = []
        for instrument in self.instruments():
            labels = dict(self.common_labels)
            labels.update(dict(instrument.labels))
            row: dict = {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": labels,
            }
            if isinstance(instrument, Histogram):
                pcts = instrument.percentiles()
                row.update(
                    count=instrument.count,
                    sum=instrument.sum,
                    mean=instrument.mean(),
                    p50=pcts[0.5],
                    p95=pcts[0.95],
                    p99=pcts[0.99],
                )
            else:
                row["value"] = instrument.value
            rows.append(row)
        return rows
