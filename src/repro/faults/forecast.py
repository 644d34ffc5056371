"""Forecast-fault injection: a forecaster decorator that lies.

:class:`FaultyForecaster` wraps any
:class:`~repro.forecast.forecasters.Forecaster` and distorts its
predictions while :class:`~repro.faults.plan.ForecastFault` windows are
active.  The :class:`~repro.faults.injector.FaultInjector` opens and
closes windows through the router's ``forecast_fault_sink``; outside
any window the wrapper is transparent (the oracle identity fast path
passes straight through, preserving byte-identical goldens).

Distortion modes, each scaled by the fault's ``severity``:

``horizon_truncation``
    The predicted window loses its tail: the last ``severity`` fraction
    of user transactions are dropped, so the router must route them
    reactively (the forecast simply did not extend that far).
``spike_dropout``
    The forecast misses load spikes: keys appearing in more than one
    transaction of the window (the hot keys a spike concentrates on)
    are replaced, with probability ``severity``, by uniform draws —
    exactly the failure mode that defeats look-back partitioning.
``magnitude_error``
    Unbiased noise: every predicted key is independently replaced with
    probability ``severity`` by a uniform draw from the key universe.
``stale_window``
    The forecast lags reality: predictions are served from the real
    footprints observed ``ceil(severity * 8)`` epochs ago, round-robin
    by position.

All draws come from a per-epoch fork of one seeded stream, so a chaos
campaign's forecast degradation replays bit-identically.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Key, Transaction
from repro.faults.plan import ForecastFault
from repro.forecast.forecasters import Forecaster, predicted_txn

__all__ = ["FaultyForecaster"]

#: Maximum staleness (epochs) a ``stale_window`` fault can impose.
MAX_STALE_LAG = 8


class FaultyForecaster(Forecaster):
    """Wraps a forecaster; distorts predictions in active fault windows."""

    name = "faulty"

    def __init__(
        self,
        inner: Forecaster,
        rng: DeterministicRNG,
        *,
        key_universe: Sequence[Key] = (),
    ) -> None:
        self.inner = inner
        self._rng = rng.fork("forecast-faults")
        #: active fault windows, in activation order.
        self.active: list[ForecastFault] = []
        self.activations = 0
        self.deactivations = 0
        self._universe: tuple[Key, ...] = tuple(key_universe)
        #: real user footprints per observed epoch (stale_window source).
        self._history: list[list[tuple[Key, ...]]] = []

    # ------------------------------------------------------------------
    # Injector sink interface
    # ------------------------------------------------------------------

    def activate(self, fault: ForecastFault) -> None:
        self.activations += 1
        self.active.append(fault)

    def deactivate(self, fault: ForecastFault) -> None:
        self.deactivations += 1
        for i, current in enumerate(self.active):
            if current is fault:
                del self.active[i]
                return

    # ------------------------------------------------------------------
    # Forecaster interface
    # ------------------------------------------------------------------

    def predict(self, batch: Batch) -> Batch:
        predicted = self.inner.predict(batch)
        if not self.active:
            return predicted
        rng = self._rng.fork("epoch", batch.epoch)
        system = [txn for txn in predicted if txn.is_system()]
        user = [txn for txn in predicted if not txn.is_system()]
        for fault in self.active:
            user = self._apply(fault, user, rng.fork(fault.kind))
        return Batch(epoch=batch.epoch, txns=system + user)

    def observe(self, batch: Batch) -> None:
        self._history.append(
            [txn.ordered_keys for txn in batch if not txn.is_system()]
        )
        if len(self._history) > MAX_STALE_LAG:
            del self._history[0]
        self.inner.observe(batch)

    # ------------------------------------------------------------------
    # Distortions
    # ------------------------------------------------------------------

    def _pool(self, user: list[Transaction]) -> tuple[Key, ...]:
        """Keys wrong predictions can draw from."""
        if self._universe:
            return self._universe
        # No configured universe: fall back to keys seen in the window,
        # sorted by repr so the pool order is hash-salt independent.
        seen: set[Key] = set()
        for txn in user:
            seen.update(txn.full_set)
        return tuple(sorted(seen, key=repr))

    def _apply(
        self,
        fault: ForecastFault,
        user: list[Transaction],
        rng: DeterministicRNG,
    ) -> list[Transaction]:
        if not user:
            return user
        if fault.kind == "horizon_truncation":
            keep = len(user) - ceil(fault.severity * len(user))
            return user[:keep]
        if fault.kind == "stale_window":
            lag = max(1, ceil(fault.severity * MAX_STALE_LAG))
            if len(self._history) < lag:
                return user
            season = self._history[-lag]
            if not season:
                return user
            return [
                predicted_txn(txn, season[i % len(season)])
                for i, txn in enumerate(user)
            ]
        pool = self._pool(user)
        if not pool:
            return user
        if fault.kind == "spike_dropout":
            frequency: dict[Key, int] = {}
            for txn in user:
                for key in txn.ordered_keys:
                    frequency[key] = frequency.get(key, 0) + 1
            return [
                self._corrupt(
                    txn, rng, pool, fault.severity,
                    only={k for k, n in frequency.items() if n > 1},
                )
                for txn in user
            ]
        # magnitude_error
        return [
            self._corrupt(txn, rng, pool, fault.severity, only=None)
            for txn in user
        ]

    @staticmethod
    def _corrupt(
        txn: Transaction,
        rng: DeterministicRNG,
        pool: tuple[Key, ...],
        probability: float,
        only: set[Key] | None,
    ) -> Transaction:
        keys: list[Key] = []
        changed = False
        for key in txn.ordered_keys:
            eligible = only is None or key in only
            if eligible and rng.random() < probability:
                keys.append(pool[rng.randint(0, len(pool) - 1)])
                changed = True
            else:
                keys.append(key)
        if not changed:
            return txn
        return predicted_txn(txn, keys)
