"""Admission control and backpressure ahead of the journal.

Shedding happens *before* a request is journaled, so rejected requests
never become part of the deterministic history — replay sees exactly
the admitted stream.  Two limits, both deliberately simple:

* ``max_per_tick`` caps arrivals folded into one sequencer epoch (a
  flash crowd cannot blow up a single batch past what the scheduler's
  serial routing pass can absorb);
* ``max_inflight`` caps accepted-but-unfinished transactions across the
  whole pipeline (sequencer backlog + dispatched work) — beyond it the
  server sheds and signals backpressure so the front end stops reading
  from its sockets instead of buffering unboundedly.

The serving stack's limits are :data:`repro.serve.driver.SERVE_ADMISSION`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cluster import Cluster

__all__ = ["AdmissionConfig", "AdmissionController"]


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    max_per_tick: int
    max_inflight: int

    def __post_init__(self) -> None:
        if self.max_per_tick < 1:
            raise ConfigurationError("max_per_tick must be >= 1")
        if self.max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")


class AdmissionController:
    """Decides, per arrival, admit vs shed; tracks both counts."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.admitted = 0
        self.shed = 0
        self._tick_count = 0

    def begin_tick(self) -> None:
        self._tick_count = 0

    def admit(self, cluster: "Cluster") -> bool:
        """One arrival: True to journal + submit, False to shed."""
        config = self.config
        if self._tick_count >= config.max_per_tick:
            self.shed += 1
            return False
        if cluster.inflight + self._tick_count >= config.max_inflight:
            self.shed += 1
            return False
        self._tick_count += 1
        self.admitted += 1
        return True

    def overloaded(self, cluster: "Cluster") -> bool:
        """Backpressure signal: stop reading from client sockets."""
        return cluster.inflight >= self.config.max_inflight
