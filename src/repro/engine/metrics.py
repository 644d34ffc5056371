"""Cluster-wide metric collection.

One :class:`ClusterMetrics` instance aggregates everything the paper's
figures need: committed transactions per window (throughput curves),
latency breakdowns (Figure 7), remote-read / migration / write-back
counters, and — via the nodes' worker pools and the network — CPU and
network usage (Figure 8).

The scalar state lives in a typed
:class:`~repro.obs.registry.MetricsRegistry` (``self.registry``): run
counters are registry :class:`~repro.obs.registry.Counter` instruments
(``metrics.remote_reads_total``, ...), which writers ``inc`` directly,
and client latencies a :class:`~repro.obs.registry.Histogram`.  Each
counter has a read-only int accessor (``metrics.remote_reads``), and
``registry.snapshot()`` exposes the same numbers uniformly (with labels)
to reporting and tracing code.

Accessor naming: time-valued accessors carry a ``_us`` suffix
(``mean_latency_us``, ``latency_percentiles_us``, ...).  The unsuffixed
``latency_percentile``/``latency_percentiles`` spellings predated the
convention and have been removed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import Counter, Histogram, MetricsRegistry
from repro.sim.stats import LatencyBreakdown, TimeSeries, WindowedRate

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import TxnRuntime


def _counter_facade(attr: str) -> property:
    """A read-only int view of one registry counter."""

    def fget(self: "ClusterMetrics") -> int:
        counter: Counter = getattr(self, attr)
        return int(counter.value)

    return property(fget)


class ClusterMetrics:
    """Counters and series for one simulation run."""

    def __init__(
        self, window_us: float, registry: MetricsRegistry | None = None
    ) -> None:
        self.window_us = window_us
        self.registry = registry if registry is not None else MetricsRegistry()
        self.commit_rate = WindowedRate("commits", window_us)
        self.latency = LatencyBreakdown()
        self.warmup_until = 0.0
        reg = self.registry
        self.commits_total = reg.counter("txn_commits_total")
        self.aborts_total = reg.counter("txn_aborts_total")
        self.remote_reads_total = reg.counter("remote_reads_total")
        self.writebacks_total = reg.counter("writebacks_total")
        self.evictions_total = reg.counter("evictions_total")
        self.batches_total = reg.counter("batches_total")
        self.user_txns_total = reg.counter("user_txns_dispatched_total")
        self.distributed_txns_total = reg.counter("distributed_txns_total")
        self.ollp_exhausted_total = reg.counter("ollp_exhausted_total")
        self.replica_reads_total = reg.counter("replica_reads_total")
        self.cloned_reads_total = reg.counter("cloned_reads_total")
        self.replica_installs_total = reg.counter("replica_installs_total")
        self._latency_hist: Histogram = reg.histogram("txn_latency_us")

    # -- read-only views of the registry counters ----------------------

    commits = _counter_facade("commits_total")
    aborts = _counter_facade("aborts_total")
    remote_reads = _counter_facade("remote_reads_total")
    writebacks = _counter_facade("writebacks_total")
    evictions = _counter_facade("evictions_total")
    batches = _counter_facade("batches_total")
    user_txns = _counter_facade("user_txns_total")
    distributed_txns = _counter_facade("distributed_txns_total")
    ollp_exhausted = _counter_facade("ollp_exhausted_total")
    replica_reads = _counter_facade("replica_reads_total")
    cloned_reads = _counter_facade("cloned_reads_total")
    replica_installs = _counter_facade("replica_installs_total")

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
        self.user_txns_total.inc()
        replica = plan.replica_reads
        if replica is not None:
            self.replica_reads_total.inc(
                sum(len(keys) for keys in replica.values())
            )
        cloned = plan.cloned_reads
        if cloned is not None:
            self.cloned_reads_total.inc(
                sum(len(keys) for keys in cloned.values())
            )
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
            self.distributed_txns_total.inc()

    def distributed_txn_ratio(self) -> float:
        """Fraction of dispatched user transactions touching > 1 node."""
        total = self.user_txns_total.value
        return self.distributed_txns_total.value / total if total else 0.0

    def note_ollp_exhausted(self) -> None:
        """Record one OLLP transaction that ran out of restarts."""
        self.ollp_exhausted_total.inc()

    def note_commit(self, runtime: "TxnRuntime") -> None:
        """Record one committed user transaction."""
        now = runtime.t_commit
        assert now is not None
        self.commit_rate.record(now)
        if now >= self.warmup_until:
            self.commits_total.inc()
            self.latency.add(*runtime.stage_times())
            self._latency_hist.observe(runtime.total_latency())

    # -- aggregates ------------------------------------------------------

    def mean_latency_us(self) -> float:
        """Mean client-perceived latency over post-warm-up commits."""
        return self._latency_hist.mean()

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
        return self._latency_hist.percentiles(quantiles)
