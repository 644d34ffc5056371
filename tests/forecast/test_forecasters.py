"""Forecaster unit tests: identity, cold start, learning, determinism."""

from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction, TxnKind
from repro.forecast.forecasters import (
    EWMAForecaster,
    MarkovForecaster,
    OracleForecaster,
    SeasonalNaiveForecaster,
    predicted_txn,
)

NUM_KEYS = 100
NUM_PARTITIONS = 4


def partition_of(key: int) -> int:
    return min(NUM_PARTITIONS - 1, key * NUM_PARTITIONS // NUM_KEYS)


def make_batch(epoch: int, footprints: list[tuple[list, list]]) -> Batch:
    txns = []
    for i, (reads, writes) in enumerate(footprints):
        txns.append(Transaction.read_write(
            txn_id=epoch * 1_000 + i, reads=reads, writes=writes,
            arrival_time=epoch * 10_000.0,
        ))
    return Batch(epoch=epoch, txns=txns)


def hot_batch(epoch: int, base: int, n: int = 8) -> Batch:
    """n txns concentrated on a small hot range starting at ``base``."""
    return make_batch(epoch, [
        ([base + (i % 5)], [base + ((i + 1) % 5)]) for i in range(n)
    ])


class TestPredictedTxn:
    def test_splits_writes_then_reads(self):
        txn = Transaction.read_write(1, reads=[1, 2, 3], writes=[2, 3])
        pred = predicted_txn(txn, [10, 20, 30])
        assert pred.txn_id == txn.txn_id
        assert pred.kind is txn.kind
        assert len(pred.write_set) == len(txn.write_set)
        assert pred.full_set == frozenset([10, 20, 30])

    def test_read_only_stays_writeless(self):
        txn = Transaction.read_only(2, reads=[1, 2])
        pred = predicted_txn(txn, [5, 6])
        assert pred.kind is TxnKind.READ_ONLY
        assert not pred.write_set
        assert pred.read_set == frozenset([5, 6])

    def test_deduplicates_keys_preserving_order(self):
        txn = Transaction.read_write(3, reads=[1, 2, 3], writes=[1])
        pred = predicted_txn(txn, [7, 7, 8, 9])
        assert pred.full_set == frozenset([7, 8, 9])


class TestOracle:
    def test_identity(self):
        forecaster = OracleForecaster()
        batch = hot_batch(0, 10)
        assert forecaster.predict(batch) is batch
        forecaster.observe(batch)
        assert forecaster.predict(batch) is batch


class TestColdStart:
    def test_learned_forecasters_pass_through_until_ready(self):
        rng = DeterministicRNG(7, "test")
        for forecaster in (
            EWMAForecaster(rng),
            MarkovForecaster(
                rng, num_partitions=NUM_PARTITIONS, partition_of=partition_of
            ),
            SeasonalNaiveForecaster(rng, period=4),
        ):
            batch = hot_batch(0, 10)
            assert forecaster.predict(batch) is batch, forecaster.name


class TestDeterminism:
    def drive(self, forecaster, epochs: int = 12):
        outputs = []
        for epoch in range(epochs):
            batch = hot_batch(epoch, base=10 + 20 * (epoch % 2))
            predicted = forecaster.predict(batch)
            outputs.append([
                (txn.txn_id, tuple(sorted(txn.full_set, key=repr)))
                for txn in predicted
            ])
            forecaster.observe(batch)
        return outputs

    def test_same_seed_same_history_same_predictions(self):
        def build(name):
            rng = DeterministicRNG(42, "det")
            if name == "ewma":
                return EWMAForecaster(rng)
            if name == "markov":
                return MarkovForecaster(
                    rng, num_partitions=NUM_PARTITIONS,
                    partition_of=partition_of,
                )
            return SeasonalNaiveForecaster(rng, period=4)

        for name in ("ewma", "markov", "seasonal"):
            assert self.drive(build(name)) == self.drive(build(name)), name


class TestLearning:
    def test_ewma_predictions_track_hot_keys(self):
        rng = DeterministicRNG(9, "learn")
        forecaster = EWMAForecaster(rng)
        for epoch in range(10):
            forecaster.observe(hot_batch(epoch, base=10))
        batch = hot_batch(10, base=10)
        predicted = forecaster.predict(batch)
        assert predicted is not batch
        keys = set()
        for txn in predicted:
            keys |= txn.full_set
        # All sampled keys come from the observed hot range.
        assert keys <= set(range(10, 15))

    def test_predictions_preserve_txn_ids_and_sizes(self):
        rng = DeterministicRNG(9, "learn")
        forecaster = EWMAForecaster(rng)
        for epoch in range(5):
            forecaster.observe(hot_batch(epoch, base=10))
        batch = hot_batch(5, base=10)
        predicted = forecaster.predict(batch)
        assert [t.txn_id for t in predicted] == [t.txn_id for t in batch]
        for real, pred in zip(batch, predicted):
            assert len(pred.full_set) == len(real.full_set)

    def test_seasonal_replays_last_season(self):
        rng = DeterministicRNG(3, "season")
        forecaster = SeasonalNaiveForecaster(rng, period=2)
        even = hot_batch(0, base=10)
        odd = hot_batch(1, base=50)
        forecaster.observe(even)
        forecaster.observe(odd)
        # Next even-phase epoch should be predicted from the even batch.
        batch = hot_batch(2, base=90)
        predicted = forecaster.predict(batch)
        assert predicted is not batch
        keys = set()
        for txn in predicted:
            keys |= txn.full_set
        assert keys <= set(range(10, 15))

    def test_markov_follows_partition_shift(self):
        rng = DeterministicRNG(5, "markov")
        forecaster = MarkovForecaster(
            rng, num_partitions=NUM_PARTITIONS, partition_of=partition_of
        )
        # Alternating hot partitions 0 -> 2 -> 0 -> 2 ...
        for epoch in range(12):
            forecaster.observe(hot_batch(epoch, base=10 + 50 * (epoch % 2)))
        batch = hot_batch(12, base=10)
        predicted = forecaster.predict(batch)
        assert predicted is not batch
        keys = set()
        for txn in predicted:
            keys |= txn.full_set
        # Last observed epoch was partition-2-hot, so the chain predicts
        # a return to partition 0's hot range.
        hot0 = {partition_of(k) for k in keys}
        assert 0 in hot0
