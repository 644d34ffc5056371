"""Streaming trace generation must be invisible in the results.

``stream_schedule`` is the generator form of the materialized arrival
schedule.  That is a determinism claim, so it is pinned against the
eager path element for element.
"""

from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.faults.chaos import ChaosConfig, iter_schedule, make_schedule
from repro.workloads.streaming import stream_schedule

TINY = ChaosConfig(num_nodes=2, num_keys=500, num_txns=60)


def _make_txn_factory(num_keys: int):
    """A minimal workload factory drawing from its own RNG stream."""
    rng = DeterministicRNG(3, "wl")

    def make_txn(txn_id: int, now_us: float) -> Transaction:
        keys = sorted({rng.randint(0, num_keys - 1) for _ in range(4)})
        return Transaction.read_write(txn_id, keys, keys[:1])

    return make_txn


class TestStreamSchedule:
    def test_matches_eager_loop_draw_for_draw(self):
        # The eager pattern: one arrival RNG, one workload RNG, advanced
        # in lockstep per transaction.
        arrivals = DeterministicRNG(9, "arrivals")
        eager_txns = _make_txn_factory(200)
        eager = []
        now = 0.0
        for txn_id in range(1, 41):
            now += arrivals.expovariate(1.0 / 250.0)
            eager.append((now, eager_txns(txn_id, now)))

        lazy = list(stream_schedule(
            _make_txn_factory(200),
            DeterministicRNG(9, "arrivals"),
            mean_gap_us=250.0,
            num_txns=40,
        ))

        assert len(lazy) == len(eager) == 40
        for (at_a, txn_a), (at_b, txn_b) in zip(lazy, eager):
            assert at_a == at_b
            assert txn_a.txn_id == txn_b.txn_id
            assert txn_a.read_set == txn_b.read_set
            assert txn_a.write_set == txn_b.write_set

    def test_chaos_iter_matches_materialized(self):
        streamed = list(iter_schedule(TINY, seed=5))
        eager = make_schedule(TINY, seed=5)
        assert len(streamed) == len(eager) == TINY.num_txns
        for (at_a, txn_a), (at_b, txn_b) in zip(streamed, eager):
            assert at_a == at_b
            assert txn_a.txn_id == txn_b.txn_id
            assert txn_a.full_set == txn_b.full_set

    def test_arrivals_strictly_increase(self):
        times = [at for at, _ in iter_schedule(TINY, seed=1)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_generator_is_lazy(self):
        minted = []

        def make_txn(txn_id: int, now_us: float) -> Transaction:
            minted.append(txn_id)
            return Transaction.read_write(txn_id, [0], [0])

        gen = stream_schedule(
            make_txn, DeterministicRNG(1, "a"), 100.0, num_txns=1000
        )
        assert minted == []
        next(gen)
        assert minted == [1]
