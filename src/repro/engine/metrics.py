"""Cluster-wide metric collection.

One :class:`ClusterMetrics` instance aggregates everything the paper's
figures need: committed transactions per window (throughput curves),
latency breakdowns (Figure 7), remote-read / migration / write-back
counters, and — via the nodes' worker pools and the network — CPU and
network usage (Figure 8).

Run counters are plain int attributes (``metrics.remote_reads``, ...)
that their one writer bumps in place with ``+=``.  Post-warm-up client
latencies sit in an ``array('d')`` (8 bytes each, against 32 for a
boxed float in a list) with a running sum kept in observe order, so the
mean and the nearest-rank percentiles are exact and deterministic.

Accessor naming: time-valued accessors carry a ``_us`` suffix
(``mean_latency_us``, ``latency_percentiles_us``, ...).  The unsuffixed
``latency_percentile``/``latency_percentiles`` spellings predated the
convention and have been removed.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from repro.sim.stats import LatencyBreakdown, TimeSeries, WindowedRate

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import TxnRuntime


class ClusterMetrics:
    """Counters and series for one simulation run."""

    def __init__(self, window_us: float) -> None:
        self.commit_rate = WindowedRate("commits", window_us)
        self.latency = LatencyBreakdown()
        self.warmup_until = 0.0
        self.commits = 0
        self.aborts = 0
        self.remote_reads = 0
        self.writebacks = 0
        self.evictions = 0
        self.batches = 0
        self.user_txns = 0
        self.distributed_txns = 0
        self.ollp_exhausted = 0
        self.replica_reads = 0
        self.cloned_reads = 0
        self.replica_installs = 0
        #: Client latency of every post-warm-up commit, in observe order.
        self._latencies = array("d")
        self._latency_sum = 0.0

    # -- recording ------------------------------------------------------

    def note_dispatch(self, plan) -> None:
        """Record one dispatched *user* transaction plan.

        A plan whose *execution* spans more than one node is a
        distributed transaction — the paper's headline metric (fewer
        distributed transactions is what prescient routing buys).  The
        ratio ``distributed_txns / user_txns`` is comparable across
        single-master strategies (master ∪ remote-read sources) and
        multi-master ones (every executing owner); post-commit
        background movement (writebacks, evictions) does not count.
        """
        self.user_txns += 1
        replica = plan.replica_reads
        if replica is not None:
            self.replica_reads += sum(len(keys) for keys in replica.values())
        cloned = plan.cloned_reads
        if cloned is not None:
            self.cloned_reads += sum(len(keys) for keys in cloned.values())
        masters = plan.masters
        if len(masters) == 1:
            # Single-master short-circuit: local iff reads and writes
            # both stay at the master (the dominant converged case) —
            # skips building the execution-node set per dispatch.
            master = masters[0]
            reads = plan.reads_from
            writes = plan.writes_at
            if (not reads or (len(reads) == 1 and master in reads)) and (
                not writes or (len(writes) == 1 and master in writes)
            ):
                return
        if len(plan.execution_nodes()) > 1:
            self.distributed_txns += 1

    def distributed_txn_ratio(self) -> float:
        """Fraction of dispatched user transactions touching > 1 node."""
        total = self.user_txns
        return self.distributed_txns / total if total else 0.0

    def note_commit(self, runtime: "TxnRuntime") -> None:
        """Record one committed user transaction."""
        now = runtime.t_commit
        assert now is not None
        self.commit_rate.record(now)
        if now >= self.warmup_until:
            self.commits += 1
            self.latency.add(*runtime.stage_times())
            latency = runtime.total_latency()
            self._latencies.append(latency)
            self._latency_sum += latency

    # -- aggregates ------------------------------------------------------

    def mean_latency_us(self) -> float:
        """Mean client-perceived latency over post-warm-up commits."""
        if not self._latencies:
            return 0.0
        return self._latency_sum / len(self._latencies)

    def throughput_series(self, until: float) -> TimeSeries:
        """Committed transactions per window (the paper's y-axis)."""
        return self.commit_rate.series(until)

    def throughput_per_second(self, until: float) -> float:
        """Mean commits per simulated second after warm-up.

        ``until`` at or before ``warmup_until`` is explicitly zero
        commits over zero span — every counted commit happens after
        warm-up, so there is nothing to rate yet (rather than leaving a
        negative span to a ``<= 0`` guard).
        """
        if until <= self.warmup_until:
            return 0.0
        span_us = until - self.warmup_until
        return self.commits / (span_us / 1e6)

    def latency_percentiles_us(
        self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[float, float]:
        """Client-perceived latency percentiles in microseconds.

        Nearest-rank method over post-warm-up commits, sorted once: the
        value at rank ``ceil(q·n)`` for each quantile, in a plain dict
        keyed by the floats passed in.  Every value is 0.0 before any
        commit is recorded.
        """
        for q in quantiles:
            if not 0 < q <= 1:
                raise ValueError("quantile must be in (0, 1]")
        ordered = sorted(self._latencies)
        n = len(ordered)
        if n == 0:
            return {q: 0.0 for q in quantiles}
        return {q: ordered[max(0, math.ceil(q * n) - 1)] for q in quantiles}
