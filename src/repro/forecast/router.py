"""Degradation-tolerant prescient routing.

:class:`ForecastRouter` wraps a :class:`PrescientRouter` and replaces
its oracle future with a :class:`~repro.forecast.forecasters.Forecaster`:

* **Oracle fast path** — when ``forecaster.predict(batch) is batch``
  the wrapped router plans the batch exactly as plain Hermes would, so
  with an :class:`OracleForecaster` every figure preset stays
  byte-identical to its goldens.
* **Prescient-on-forecast** — otherwise the greedy reorder+route search
  (Algorithm 1 steps 1–3) runs over the *predicted* transactions, and
  the resulting master assignments are applied to the *real*
  transactions via the authoritative plan-construction pass.  Plans are
  always valid — every real key is covered — but a wrong forecast picks
  wrong masters, inflating migrations and multi-node transactions.
  Real transactions the forecast omitted (short horizon) are routed
  reactively.
* **Graceful fallback** — each epoch the router measures forecast error
  (mean per-transaction Jaccard distance between predicted and real
  routing footprints) and feeds a :class:`MispredictDetector`.  Past the
  hysteresis threshold it stops trusting the forecast entirely and
  routes Calvin/Clay-style reactively (multi-master, no speculative
  data movement), notifying its :class:`FallbackCoordinator` so
  in-flight prescient migrations are cancelled through the
  ``MigrationSession`` state machine.  When forecast quality recovers,
  prescient planning resumes and the whole episode is traced as one
  ``forecast_fallback`` span.

The router stays a deterministic function of the totally ordered input:
forecasters are seeded, the detector is pure, and mode switches happen
on epoch boundaries decided only by sequenced batches.
"""

from __future__ import annotations

from repro.common.config import CostModel, RoutingConfig
from repro.common.types import Batch, Transaction
from repro.core.plan import RoutingPlan
from repro.core.prescient import PrescientRouter
from repro.core.router import (
    ClusterView,
    Router,
    build_chunk_migration_plan,
    build_multi_master_plan,
    split_system_txns,
)
from repro.forecast.detector import MispredictDetector
from repro.forecast.forecasters import Forecaster

__all__ = ["ForecastRouter", "forecast_error"]


def forecast_error(real: Batch, predicted: Batch) -> float:
    """Mean per-transaction Jaccard distance between routing footprints.

    Compares each real user transaction against its predicted
    counterpart (matched by txn id): ``1 - |real ∩ pred| / |real ∪
    pred|``.  A real transaction with no prediction scores 1.0 (the
    horizon missed it entirely).  The metric is deliberately *per
    transaction*, not an aggregate load histogram: prescient routing
    plans each transaction's master from its predicted keys, so a
    forecast that nails the aggregate distribution but misses which
    keys appear *together* still routes terribly — and must read as
    high error.  System transactions are excluded (never forecast);
    an all-system batch scores 0.0 and the oracle identity
    short-circuits.
    """
    if predicted is real:
        return 0.0
    predicted_sets: dict[int, frozenset] = {
        txn.txn_id: txn.full_set
        for txn in predicted
        if not txn.is_system()
    }
    total = 0.0
    count = 0
    for txn in real:
        if txn.is_system():
            continue
        count += 1
        pred = predicted_sets.get(txn.txn_id)
        if pred is None:
            total += 1.0
            continue
        footprint = txn.full_set
        union = len(footprint | pred)
        if union == 0:
            continue  # both empty: perfect (vacuous) prediction
        total += 1.0 - len(footprint & pred) / union
    return total / count if count else 0.0


class ForecastRouter(Router):
    """Prescient routing driven by a forecaster instead of an oracle."""

    name = "hermes-forecast"

    def __init__(
        self,
        forecaster: Forecaster,
        config: RoutingConfig | None = None,
        *,
        fallback_enabled: bool = True,
        detector: MispredictDetector | None = None,
    ) -> None:
        self._inner = PrescientRouter(config)
        self.forecaster = forecaster
        self.fallback_enabled = fallback_enabled
        self.detector = (
            detector if detector is not None else MispredictDetector()
        )
        #: Fault-injection sink: when the forecaster is a
        #: ``FaultyForecaster`` the injector activates/deactivates
        #: :class:`~repro.faults.plan.ForecastFault` windows through it.
        self.forecast_fault_sink = (
            forecaster if hasattr(forecaster, "activate") else None
        )
        #: Bound by the FallbackCoordinator (strategy attach hook).
        self.tracer = None
        self.on_engage = None
        self._engaged_at_us: float | None = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.epochs_total = 0
        self.epochs_fallback = 0
        self.unpredicted_txns = 0
        self.fallback_engagements = 0
        self.fallback_recoveries = 0
        self.error_sum = 0.0
        # Per-mode distributed-transaction accounting: the robustness
        # bound is "fallback epochs route no worse than the reactive
        # baseline", which only a per-mode ratio can show (run-wide
        # ratios mix prescient and reactive epochs).
        self.txns_prescient = 0
        self.distributed_prescient = 0
        self.txns_fallback = 0
        self.distributed_fallback = 0

    # ------------------------------------------------------------------
    # Router interface
    # ------------------------------------------------------------------

    @property
    def in_fallback(self) -> bool:
        """Whether reactive routing is currently active."""
        return self.detector.engaged

    def routing_cost_us(self, batch_size: int, costs: CostModel) -> float:
        # Reactive epochs skip the quadratic reorder search; the mode is
        # a deterministic function of the sequenced input, so charging
        # by mode keeps the simulation deterministic.
        if self.detector.engaged:
            return super().routing_cost_us(batch_size, costs)
        return self._inner.routing_cost_us(batch_size, costs)

    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        predicted = self.forecaster.predict(batch)
        in_fallback = self.detector.engaged
        if in_fallback:
            plan = self._route_reactive(batch, view)
            self.epochs_fallback += 1
        elif predicted is batch:
            plan = self._inner.route_batch(batch, view)
        else:
            plan = self._route_on_forecast(batch, predicted, view)
        self._note_mode_footprint(plan, in_fallback)
        error = forecast_error(batch, predicted)
        self.forecaster.observe(batch)
        self.epochs_total += 1
        self.error_sum += error
        self._note_epoch(batch.epoch, error)
        return plan

    def stats_snapshot(self) -> dict[str, float]:
        """Merged planning + forecast counters (per-batch samples)."""
        stats: dict[str, float] = dict(self._inner.stats_snapshot())
        stats["epochs"] = self.epochs_total
        stats["epochs_fallback"] = self.epochs_fallback
        stats["unpredicted_txns"] = self.unpredicted_txns
        stats["fallback_engagements"] = self.fallback_engagements
        stats["fallback_recoveries"] = self.fallback_recoveries
        stats["error_ewma"] = round(self.detector.ewma, 9)
        stats["txns_prescient"] = self.txns_prescient
        stats["distributed_prescient"] = self.distributed_prescient
        stats["txns_fallback"] = self.txns_fallback
        stats["distributed_fallback"] = self.distributed_fallback
        stats["fallback_distributed_ratio"] = (
            self.distributed_fallback / self.txns_fallback
            if self.txns_fallback else 0.0
        )
        stats["prescient_distributed_ratio"] = (
            self.distributed_prescient / self.txns_prescient
            if self.txns_prescient else 0.0
        )
        return stats

    def _note_mode_footprint(
        self, plan: RoutingPlan, in_fallback: bool
    ) -> None:
        """Per-mode distributed-transaction counts for this batch."""
        txns = 0
        distributed = 0
        for txn_plan in plan.plans:
            if txn_plan.txn.is_system():
                continue
            txns += 1
            if len(txn_plan.execution_nodes()) > 1:
                distributed += 1
        if in_fallback:
            self.txns_fallback += txns
            self.distributed_fallback += distributed
        else:
            self.txns_prescient += txns
            self.distributed_prescient += distributed

    def reset_stats(self) -> None:
        """Zero planning counters (fresh run over a reused instance)."""
        self._inner.reset_stats()
        self._reset_counters()

    # ------------------------------------------------------------------
    # Planning modes
    # ------------------------------------------------------------------

    def _route_on_forecast(
        self, batch: Batch, predicted: Batch, view: ClusterView
    ) -> RoutingPlan:
        """Run Algorithm 1 over predicted txns; build real plans."""
        user_txns, system_plans, migration_txns = split_system_txns(
            batch, view
        )
        predicted_by_id: dict[int, Transaction] = {
            txn.txn_id: txn for txn in predicted if not txn.is_system()
        }
        covered_real: list[Transaction] = []
        covered_pred: list[Transaction] = []
        uncovered: list[Transaction] = []
        for txn in user_txns:
            pred = predicted_by_id.get(txn.txn_id)
            if pred is None:
                uncovered.append(txn)
            else:
                covered_real.append(txn)
                covered_pred.append(pred)

        inner = self._inner
        order = inner._plan_order(covered_pred, view)
        plan = RoutingPlan(epoch=batch.epoch, plans=system_plans)
        for index, master in order:
            plan.plans.append(
                inner._build_plan(covered_real[index], master, view)
            )
        # Transactions outside the forecast horizon route reactively:
        # no master guess is better than a random one.
        for txn in uncovered:
            plan.plans.append(build_multi_master_plan(txn, view))
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        inner.batches_routed += 1
        inner.txns_routed += len(user_txns)
        inner.moves_planned += sum(len(p.migrations) for p in plan.plans)
        self.unpredicted_txns += len(uncovered)
        return plan

    def _route_reactive(
        self, batch: Batch, view: ClusterView
    ) -> RoutingPlan:
        """Calvin/Clay-style multi-master routing (no forecasts used)."""
        user_txns, system_plans, migration_txns = split_system_txns(
            batch, view
        )
        plan = RoutingPlan(epoch=batch.epoch, plans=system_plans)
        for txn in user_txns:
            plan.plans.append(build_multi_master_plan(txn, view))
        for txn in migration_txns:
            plan.plans.append(build_chunk_migration_plan(txn, view))
        return plan

    # ------------------------------------------------------------------
    # Mispredict detection / fallback transitions
    # ------------------------------------------------------------------

    def _note_epoch(self, epoch: int, error: float) -> None:
        tracer = self.tracer
        if not self.fallback_enabled:
            # Still smooth the error so stats expose forecast quality,
            # but never transition (ablation: prescient-or-bust).
            detector = self.detector
            if detector.epochs_observed == 0:
                detector.ewma = error
            else:
                detector.ewma = (
                    detector.alpha * error
                    + (1.0 - detector.alpha) * detector.ewma
                )
            detector.epochs_observed += 1
            if tracer is not None:
                tracer.forecast_sample(
                    epoch, error=round(error, 9),
                    ewma=round(detector.ewma, 9), fallback=0,
                )
            return

        signal = self.detector.observe(error)
        if tracer is not None:
            tracer.forecast_sample(
                epoch, error=round(error, 9),
                ewma=round(self.detector.ewma, 9),
                fallback=int(self.detector.engaged),
            )
        if signal == "engage":
            self.fallback_engagements += 1
            self._engaged_at_us = tracer.now() if tracer is not None else 0.0
            if tracer is not None:
                tracer.forecast_transition(
                    "fallback_engaged", epoch=epoch,
                    ewma=round(self.detector.ewma, 9),
                )
            if self.on_engage is not None:
                self.on_engage(epoch)
        elif signal == "recover":
            self.fallback_recoveries += 1
            if tracer is not None:
                started = (
                    self._engaged_at_us
                    if self._engaged_at_us is not None
                    else tracer.now()
                )
                tracer.forecast_fallback(
                    started, epoch=epoch,
                    ewma=round(self.detector.ewma, 9),
                )
                tracer.forecast_transition("fallback_recovered", epoch=epoch)
            self._engaged_at_us = None
