"""Streaming trace generation: arrival schedules that never materialize.

The chaos harness draws its open-loop arrival schedules from
:func:`stream_schedule`, the draw-for-draw generator equivalent of the
materialized pattern ``now += rng.expovariate(1/gap);
workload.make_txn(txn_id, now)``.  Because the arrival stream and the
workload's own RNG are independently forked streams, laziness cannot
reorder any draw: ``list(stream_schedule(...))`` is *identical* to the
eager loop, element for element.

Determinism argument: a generator defers *Python* work, not *draws* —
each ``next()`` performs exactly the draws the eager loop's iteration
``i`` performed, in the same order, against the same RNG streams.  The
equivalence test (``tests/workloads/test_streaming.py``) pins this.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction


def stream_schedule(
    make_txn: Callable[[int, float], Transaction],
    arrivals: DeterministicRNG,
    mean_gap_us: float,
    num_txns: int,
    first_txn_id: int = 1,
) -> Iterator[tuple[float, Transaction]]:
    """Yield ``(arrival_us, txn)`` pairs with exponential inter-arrivals.

    ``make_txn`` is the workload's transaction factory; ``arrivals`` is
    a dedicated RNG stream (fork it from the run's root — do not share
    the workload's stream, which would interleave draw sequences).
    Yields ``num_txns`` pairs with strictly increasing arrival times.
    """
    expovariate = arrivals.expovariate
    rate = 1.0 / mean_gap_us
    now = 0.0
    for txn_id in range(first_txn_id, first_txn_id + num_txns):
        now += expovariate(rate)
        yield now, make_txn(txn_id, now)
