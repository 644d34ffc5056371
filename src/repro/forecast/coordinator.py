"""Cluster-side wiring for forecast-driven fallback.

Routers are pure planning functions — they hold no tracer, no metrics
registry, and no migration machinery.  The :class:`FallbackCoordinator`
is the strategy ``attach`` hook that binds a :class:`ForecastRouter`
into a live cluster:

* gives the router the cluster's tracer (forecast samples + fallback
  spans land in the same trace as everything else);
* registers forecast gauges/counters in the cluster's
  :class:`~repro.obs.registry.MetricsRegistry`;
* owns a :class:`~repro.engine.migration.MigrationController` so
  prescient cold migrations started through the coordinator are
  **cancelled through the session state machine the moment fallback
  engages** — a bad forecast must not keep migrating data nobody will
  touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.provisioning import ColdMigrationPlan
from repro.engine.migration import MigrationController
from repro.forecast.router import ForecastRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cluster import Cluster
    from repro.engine.migration import MigrationSession

__all__ = ["FallbackCoordinator"]


class FallbackCoordinator:
    """Binds a ForecastRouter to a cluster's trace/metrics/migrations."""

    def __init__(self, cluster: "Cluster", router: ForecastRouter) -> None:
        if cluster.router is not router:
            raise ValueError(
                "coordinator must wrap the cluster's own router"
            )
        self.cluster = cluster
        self.router = router
        self.controller = MigrationController(cluster)
        router.tracer = cluster.tracer
        router.on_engage = self._on_engage
        router.on_recover = self._on_recover
        registry = cluster.metrics.registry
        self._engagements = registry.counter(
            "forecast_fallback_engagements_total"
        )
        self._recoveries = registry.counter(
            "forecast_fallback_recoveries_total"
        )
        self._cancelled_chunks = registry.counter(
            "forecast_cancelled_chunks_total"
        )
        self._error_gauge = registry.gauge("forecast_error_ewma")

    # ------------------------------------------------------------------
    # Migration plumbing (prescient cold moves go through here)
    # ------------------------------------------------------------------

    def start_migration(self, plan: ColdMigrationPlan) -> "MigrationSession":
        """Run a prescient cold-migration plan under fallback control."""
        return self.controller.start(plan)

    # ------------------------------------------------------------------
    # Router callbacks
    # ------------------------------------------------------------------

    def _on_engage(self, epoch: int) -> None:
        self._engagements.inc()
        self._error_gauge.set(self.router.detector.ewma)
        # Cancel in-flight prescient migrations through the session
        # state machine: chunks already sequenced keep their total-order
        # slot; the unsubmitted remainder is abandoned (and counted).
        remainder = self.controller.cancel()
        if remainder:
            self._cancelled_chunks.inc(len(remainder))

    def _on_recover(self, epoch: int) -> None:
        self._recoveries.inc()
        self._error_gauge.set(self.router.detector.ewma)
