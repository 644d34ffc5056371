"""Forecasters: predicted future windows for the prescient router.

The paper's prescient router consumes the *true* future — the totally
ordered batch itself is the forecast, which is why the source system
never has a code path for "the prediction was wrong".  This module
de-oracles that assumption.  A :class:`Forecaster` maps a real batch to
a *predicted* batch with the same transaction ids and shapes (arrival
order, read/write cardinalities) but possibly different key footprints;
the :class:`~repro.forecast.router.ForecastRouter` plans against the
prediction and executes against reality.

Contract
--------
* ``predict(batch)`` returns a batch whose user transactions carry the
  same ``txn_id``/``kind``/``arrival_time``/``profile`` as the input.
  A forecaster may *omit* user transactions (a short horizon); omitted
  transactions are routed reactively by the caller.  System
  transactions (TOPOLOGY / MIGRATION) are never predicted — they pass
  through untouched and the caller ignores them in the predicted batch.
* ``predict(batch) is batch`` is the *oracle fast path*: the caller
  treats identity as "prediction == truth" and routes exactly as the
  plain prescient router would, byte for byte.
* ``observe(batch)`` feeds the *real* batch back after planning, so
  learned forecasters only ever train on ground truth that has already
  been sequenced (no time travel).
* Every stochastic draw comes from a :class:`DeterministicRNG` forked
  per epoch — two runs with the same seed and the same observed history
  produce bit-identical predictions.

Learned forecasters deliberately model only what a real deployment
could know at planning time: per-partition arrival weights and hot-key
heat accumulated from *past* batches.  They read the current batch's
shape (how many transactions, how many keys each) but never its keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Key, Transaction, TxnKind

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Forecaster",
    "OracleForecaster",
    "EWMAForecaster",
    "MarkovForecaster",
    "SeasonalNaiveForecaster",
    "predicted_txn",
]


def predicted_txn(txn: Transaction, keys: Sequence[Key]) -> Transaction:
    """Clone a user transaction with a predicted key footprint.

    The prediction keeps the transaction's identity and cost shape and
    replaces only the data footprint.  The first ``len(write_set)``
    predicted keys become the predicted write-set (write counts are
    part of the observable batch shape; *which* keys are written is
    not), except for READ_ONLY transactions which stay read-only.
    """
    distinct = tuple(dict.fromkeys(keys))
    if txn.kind is TxnKind.READ_ONLY:
        writes: frozenset[Key] = frozenset()
    else:
        writes = frozenset(distinct[: len(txn.write_set)])
    return Transaction(
        txn_id=txn.txn_id,
        read_set=frozenset(distinct),
        write_set=writes,
        kind=txn.kind,
        arrival_time=txn.arrival_time,
        profile=txn.profile,
        aborts=txn.aborts,
        tenant=txn.tenant,
    )


class Forecaster(ABC):
    """Maps a real (sequenced) batch to a predicted batch."""

    #: Human-readable name used in experiment tables.
    name: str = "forecaster"

    @abstractmethod
    def predict(self, batch: Batch) -> Batch:
        """Predicted window for this epoch (identity = oracle)."""

    def observe(self, batch: Batch) -> None:
        """Learn from the real batch after it has been planned."""


class OracleForecaster(Forecaster):
    """The paper's implicit forecaster: the future *is* the batch.

    ``predict`` returns the input batch itself, which the router treats
    as the byte-identical prescient fast path.
    """

    name = "oracle"

    def predict(self, batch: Batch) -> Batch:
        return batch


class _LearnedForecaster(Forecaster):
    """Shared plumbing: per-epoch RNG forks and cold-start handling."""

    def __init__(self, rng: DeterministicRNG) -> None:
        self._rng = rng.fork("forecaster", self.name)

    def _epoch_rng(self, epoch: int) -> DeterministicRNG:
        return self._rng.fork("epoch", epoch)

    @abstractmethod
    def _ready(self) -> bool:
        """Whether enough history exists to predict (else: the oracle)."""

    @abstractmethod
    def _predict_keys(
        self, txn: Transaction, index: int, rng: DeterministicRNG
    ) -> Sequence[Key]:
        """The predicted footprint of the batch's ``index``-th txn."""

    def predict(self, batch: Batch) -> Batch:
        if not self._ready():
            # Cold start: no history yet, behave as the oracle so the
            # first epochs are planned sensibly rather than randomly.
            return batch
        rng = self._epoch_rng(batch.epoch)
        txns: list[Transaction] = []
        user_index = 0
        for txn in batch:
            if txn.is_system():
                txns.append(txn)
                continue
            keys = self._predict_keys(txn, user_index, rng)
            txns.append(predicted_txn(txn, keys))
            user_index += 1
        return Batch(epoch=batch.epoch, txns=txns)


class _HeatTable:
    """Decayed per-key heat with deterministic weighted sampling.

    Keys are held in a dict (insertion-ordered); the sampling arrays
    are rebuilt lazily after each observation over the keys sorted by
    ``repr`` so draws never depend on the per-process hash salt.
    """

    __slots__ = ("alpha", "max_tracked", "_heat", "_keys", "_cum", "_dirty")

    def __init__(self, alpha: float, max_tracked: int) -> None:
        self.alpha = alpha
        self.max_tracked = max_tracked
        self._heat: dict[Key, float] = {}
        self._keys: list[Key] = []
        self._cum: np.ndarray | None = None
        self._dirty = True

    def __len__(self) -> int:
        return len(self._heat)

    def observe(self, keys: Sequence[Key]) -> None:
        heat = self._heat
        decay = 1.0 - self.alpha
        for key in heat:
            heat[key] *= decay
        bump = self.alpha
        for key in keys:
            heat[key] = heat.get(key, 0.0) + bump
        if len(heat) > self.max_tracked:
            # Keep the hottest entries; ties break on repr so trimming
            # is independent of insertion and hash order.
            survivors = sorted(
                heat.items(), key=lambda item: (-item[1], repr(item[0]))
            )[: self.max_tracked]
            self._heat = dict(survivors)
        self._dirty = True

    def _rebuild(self) -> None:
        import numpy as np

        items = sorted(self._heat.items(), key=lambda item: repr(item[0]))
        self._keys = [key for key, _heat in items]
        weights = np.array([heat for _key, heat in items], dtype=float)
        total = float(weights.sum())
        if total <= 0.0:
            weights = np.ones(len(items), dtype=float)
            total = float(len(items))
        self._cum = (weights / total).cumsum()
        self._dirty = False

    def sample(self, count: int, rng: DeterministicRNG) -> list[Key]:
        """Draw ``count`` distinct keys, heat-weighted."""
        if self._dirty:
            self._rebuild()
        keys, cum = self._keys, self._cum
        if not keys or cum is None:
            return []
        picked: dict[Key, None] = {}
        # Weighted draws with a bounded rejection budget, then a
        # deterministic top-up from the sorted key list.
        draws = rng.np.random(4 * count)
        for u in draws:
            if len(picked) >= count:
                break
            key = keys[int(cum.searchsorted(u, side="left"))]
            picked.setdefault(key, None)
        if len(picked) < count:
            for key in keys:
                if len(picked) >= count:
                    break
                picked.setdefault(key, None)
        return list(picked)


class EWMAForecaster(_LearnedForecaster):
    """Exponentially weighted moving-average hot-key forecaster.

    Tracks a decayed heat score per key across observed epochs and
    predicts each transaction's footprint as a heat-weighted draw —
    the classic "yesterday's hot keys are tomorrow's hot keys" model
    that look-back partitioners embody.
    """

    name = "ewma"

    def __init__(
        self,
        rng: DeterministicRNG,
        *,
        alpha: float = 0.3,
        max_tracked: int = 4096,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if max_tracked < 1:
            raise ConfigurationError("max_tracked must be positive")
        super().__init__(rng)
        self._table = _HeatTable(alpha, max_tracked)
        self._epochs_seen = 0

    def _ready(self) -> bool:
        return self._epochs_seen > 0 and len(self._table) > 0

    def _predict_keys(
        self, txn: Transaction, index: int, rng: DeterministicRNG
    ) -> Sequence[Key]:
        return self._table.sample(txn.size, rng)

    def observe(self, batch: Batch) -> None:
        keys: list[Key] = []
        for txn in batch:
            if not txn.is_system():
                keys.extend(txn.ordered_keys)
        if keys:
            self._table.observe(keys)
            self._epochs_seen += 1


class MarkovForecaster(_LearnedForecaster):
    """First-order Markov chain over per-partition arrival weights.

    Learns a partition-to-partition transition matrix from consecutive
    observed epochs (where did load move between epoch e-1 and e?) and
    predicts epoch e's partition-weight vector as ``w_{e-1} @ T``.
    Keys are then drawn from the predicted partition's own heat table.
    Partitions are integer ids from a caller-supplied ``partition_of``
    mapping, so the matrix math is pure numpy with no hash-order
    dependence.
    """

    name = "markov"

    def __init__(
        self,
        rng: DeterministicRNG,
        *,
        num_partitions: int,
        partition_of,
        alpha: float = 0.3,
        max_tracked_per_partition: int = 1024,
    ) -> None:
        if num_partitions < 1:
            raise ConfigurationError("num_partitions must be positive")
        import numpy as np

        super().__init__(rng)
        self.num_partitions = num_partitions
        self.partition_of = partition_of
        self._transitions = np.ones((num_partitions, num_partitions))
        self._prev_weights: np.ndarray | None = None
        self._tables = [
            _HeatTable(alpha, max_tracked_per_partition)
            for _ in range(num_partitions)
        ]
        self._predicted: np.ndarray | None = None

    def _ready(self) -> bool:
        return self._prev_weights is not None

    def _partition_weights(self, batch: Batch) -> np.ndarray | None:
        import numpy as np

        counts = np.zeros(self.num_partitions)
        for txn in batch:
            if txn.is_system():
                continue
            for key in txn.ordered_keys:
                part = self.partition_of(key)
                if 0 <= part < self.num_partitions:
                    counts[part] += 1.0
        total = counts.sum()
        if total <= 0.0:
            return None
        return counts / total

    def predict(self, batch: Batch) -> Batch:
        if self._prev_weights is not None:
            row = self._prev_weights @ self._transitions
            total = row.sum()
            self._predicted = row / total if total > 0 else None
        else:
            self._predicted = None
        return super().predict(batch)

    def _predict_keys(
        self, txn: Transaction, index: int, rng: DeterministicRNG
    ) -> Sequence[Key]:
        weights = self._predicted
        if weights is None:
            return txn.ordered_keys
        cum = weights.cumsum()
        keys: list[Key] = []
        draws = rng.np.random(txn.size)
        for u in draws:
            part = int(cum.searchsorted(u, side="left"))
            part = min(part, self.num_partitions - 1)
            table = self._tables[part]
            got = table.sample(1, rng)
            if got:
                keys.extend(got)
        return keys

    def observe(self, batch: Batch) -> None:
        weights = self._partition_weights(batch)
        if weights is None:
            return
        if self._prev_weights is not None:
            # Soft transition counts: mass moving from partition i to j.
            self._transitions += self._prev_weights[:, None] * weights
        self._prev_weights = weights
        for txn in batch:
            if txn.is_system():
                continue
            for key in txn.ordered_keys:
                part = self.partition_of(key)
                if 0 <= part < self.num_partitions:
                    self._tables[part].observe((key,))


class SeasonalNaiveForecaster(_LearnedForecaster):
    """Seasonal-naive: epoch e's footprints repeat epoch e - period.

    The cheapest model that captures cyclic workloads (the moving-Zipf
    global hotspot in the YCSB generator is periodic by construction):
    each transaction's predicted footprint is lifted from the observed
    footprint list one season ago, assigned round-robin by position.
    """

    name = "seasonal"

    def __init__(self, rng: DeterministicRNG, *, period: int = 8) -> None:
        if period < 1:
            raise ConfigurationError("period must be positive")
        super().__init__(rng)
        self.period = period
        self._history: list[list[tuple[Key, ...]]] = []

    def _ready(self) -> bool:
        return len(self._history) >= self.period

    def _predict_keys(
        self, txn: Transaction, index: int, rng: DeterministicRNG
    ) -> Sequence[Key]:
        season = self._history[-self.period]
        if not season:
            return txn.ordered_keys
        return season[index % len(season)]

    def observe(self, batch: Batch) -> None:
        footprints = [
            txn.ordered_keys for txn in batch if not txn.is_system()
        ]
        self._history.append(footprints)
        # Only one season of lookback is ever consulted.
        if len(self._history) > self.period:
            del self._history[0]
