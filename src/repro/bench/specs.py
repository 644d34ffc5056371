"""Strategy specifications: how each evaluated system is assembled.

A :class:`StrategySpec` bundles everything needed to stand up one of the
paper's systems on a fresh cluster: the router factory, the ownership
overlay (Hermes' bounded fusion table vs. LEAP's unbounded map vs. none),
and an ``attach`` hook that wires auxiliary controllers (Clay's monitor
loop and its migration controller) once the cluster exists.

``make_strategy(name, ...)`` is the registry the benchmarks use; names
match the paper's labels: ``calvin``, ``gstore``, ``leap``, ``tpart``,
``clay``, ``hermes`` (plus ``hermes-noreorder`` / ``hermes-nobalance``
for the ablations).  Schism is not a runtime strategy — it produces a
static partitioning offline — so it appears in the harness as a
partitioner, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.calvin import CalvinRouter
from repro.baselines.clay import ClayController, ClayRouter
from repro.baselines.gstore import GStoreRouter
from repro.baselines.leap import LeapRouter
from repro.baselines.tpart import TPartRouter
from repro.common.config import FusionConfig, RoutingConfig
from repro.common.errors import ConfigurationError
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.core.router import KeyOverlay, Router

if True:  # typing-only import kept explicit for readability
    from repro.engine.cluster import Cluster


@dataclass(slots=True)
class StrategySpec:
    """Recipe for standing up one evaluated system."""

    name: str
    make_router: Callable[[], Router]
    make_overlay: Callable[[], KeyOverlay] | None = None
    attach: Callable[["Cluster"], object] | None = None

    def build_overlay(self) -> KeyOverlay | None:
        if self.make_overlay is None:
            return None
        return self.make_overlay()


def make_strategy(
    name: str,
    *,
    fusion: FusionConfig | None = None,
    clay_clump_records: int = 500,
    clay_monitor_interval_us: float = 30_000_000.0,
) -> StrategySpec:
    """Build the spec for one of the paper's systems by name."""
    if name == "calvin":
        return StrategySpec(
            name="calvin",
            make_router=CalvinRouter,
        )
    if name == "gstore":
        return StrategySpec(
            name="gstore",
            make_router=GStoreRouter,
        )
    if name == "leap":
        return StrategySpec(
            name="leap",
            make_router=LeapRouter,
        )
    if name == "tpart":
        return StrategySpec(
            name="tpart",
            make_router=TPartRouter,
        )
    if name == "clay":
        router_holder: list[ClayRouter] = []

        def make_router() -> Router:
            router = ClayRouter(clump_records=clay_clump_records)
            router_holder.append(router)
            return router

        def attach(cluster: "Cluster") -> ClayController:
            controller = ClayController(
                cluster,
                router_holder[-1],
                monitor_interval_us=clay_monitor_interval_us,
            )
            controller.start()
            return controller

        return StrategySpec(
            name="clay",
            make_router=make_router,
            attach=attach,
        )
    if name in ("hermes", "hermes-noreorder", "hermes-nobalance"):
        config = RoutingConfig(
            reorder=name != "hermes-noreorder",
            balance=name != "hermes-nobalance",
        )
        fusion_config = fusion if fusion is not None else FusionConfig()
        return StrategySpec(
            name=name,
            make_router=lambda: PrescientRouter(config),
            make_overlay=lambda: FusionTable(fusion_config),
        )
    raise ConfigurationError(f"unknown strategy {name!r}")


#: The systems compared in Figures 6(b)/7/8/9 (on-line strategies).
ONLINE_STRATEGIES = ("calvin", "gstore", "tpart", "leap", "hermes")

#: The full comparison set used by the simpler-workload experiments.
ALL_STRATEGIES = ("calvin", "clay", "gstore", "tpart", "leap", "hermes")
