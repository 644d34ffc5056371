"""Cluster-side wiring for forecast-driven fallback.

Routers are pure planning functions — they hold no tracer and no
migration machinery.  The :class:`FallbackCoordinator` is the strategy
``attach`` hook that binds a :class:`ForecastRouter` into a live
cluster:

* gives the router the cluster's tracer (forecast samples + fallback
  spans land in the same trace as everything else);
* owns a :class:`~repro.engine.migration.MigrationController` so
  prescient cold migrations started through the coordinator are
  **cancelled through the session state machine the moment fallback
  engages** — a bad forecast must not keep migrating data nobody will
  touch.  The chunks a cancel abandons are counted in
  :attr:`FallbackCoordinator.cancelled_chunks`; engagements, recoveries
  and the error EWMA are the router's own counters.
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
    """Binds a ForecastRouter to a cluster's trace and migrations."""

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
        #: Unsubmitted migration chunks abandoned by fallback cancels.
        self.cancelled_chunks = 0

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
        # Cancel in-flight prescient migrations through the session
        # state machine: chunks already sequenced keep their total-order
        # slot; the unsubmitted remainder is abandoned (and counted).
        self.cancelled_chunks += len(self.controller.cancel())
