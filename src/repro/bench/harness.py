"""Experiment runner: one (strategy, workload) combination per call.

``run_workload`` is the generic engine behind every figure: it builds a
fresh cluster for the given :class:`StrategySpec`, loads the keyspace,
attaches any controllers, drives the workload open- or closed-loop, and
returns an :class:`ExperimentResult` carrying the aggregates and series
the paper plots.  ``run_google_ycsb`` specializes it for the Google-
trace experiments (Figures 2 and 6–10, the robustness and replication
comparisons), where the offered rate follows the trace's total-load
envelope.

``parallel_map`` is the fleet primitive the figure comparisons build on:
independent (strategy × sweep-point × seed) runs fan out over a process
pool while results come back in submission order, so a parallel sweep
returns exactly what the serial loop would have.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.bench.presets import GOOGLE_RATE_SCALE, bench_trace_config
from repro.bench.specs import StrategySpec
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRNG
from repro.engine.cluster import Cluster
from repro.obs.tracer import Tracer
from repro.sim.stats import TimeSeries
from repro.storage.partitioning import Partitioner, make_uniform_ranges
from repro.workloads.base import ClosedLoopDriver, OpenLoopDriver

if TYPE_CHECKING:
    from repro.workloads.google_trace import SyntheticGoogleTrace
    from repro.workloads.ycsb import YCSBConfig


@dataclass(slots=True)
class ExperimentResult:
    """Everything a figure needs from one run."""

    strategy: str
    commits: int
    duration_us: float
    throughput_per_s: float
    mean_latency_us: float
    latency_breakdown_us: dict[str, float]
    cpu_utilization: float
    net_bytes_per_commit: float
    remote_reads: int
    writebacks: int
    evictions: int
    throughput_series: TimeSeries
    latency_p50_us: float = 0.0
    latency_p95_us: float = 0.0
    latency_p99_us: float = 0.0
    extras: dict = field(default_factory=dict)

    def summary_row(self) -> dict[str, float | str]:
        """Flat row for the reporting tables."""
        return {
            "strategy": self.strategy,
            "throughput/s": round(self.throughput_per_s, 1),
            "latency_ms": round(self.mean_latency_us / 1000, 2),
            "p50_ms": round(self.latency_p50_us / 1000, 2),
            "p95_ms": round(self.latency_p95_us / 1000, 2),
            "p99_ms": round(self.latency_p99_us / 1000, 2),
            "cpu_%": round(self.cpu_utilization * 100, 1),
            "net_B/txn": round(self.net_bytes_per_commit, 0),
            "remote_reads": self.remote_reads,
        }


def run_workload(
    spec: StrategySpec,
    *,
    cluster_config: ClusterConfig,
    partitioner_factory: Callable[[], Partitioner],
    workload_factory: Callable[[DeterministicRNG], object],
    keys: Iterable | None = None,
    seed: int = 7,
    duration_us: float = 30_000_000.0,
    warmup_us: float = 2_000_000.0,
    drain: bool = True,
    mode: str = "closed",
    clients: int = 200,
    rate_per_s: float | Callable[[float], float] = 10_000.0,
    stats_window_us: float = 1_000_000.0,
    active_nodes: Iterable[int] | None = None,
    before_run: Callable[[Cluster], None] | None = None,
    keep_cluster: bool = False,
    trace: Tracer | None = None,
    rng_label: str | None = None,
) -> ExperimentResult:
    """Run one strategy on one workload and collect the paper's metrics.

    ``workload_factory`` receives a deterministic RNG and must return an
    object with ``make_txn``; if it also exposes ``all_keys`` and
    ``keys`` is None, that is used to load the database.  ``before_run``
    runs after construction (used to schedule scale-out events etc.).

    ``trace`` opts the run into structured tracing: the
    :class:`~repro.obs.tracer.Tracer` is threaded through the whole engine
    stack (sequencer, scheduler, locks, executors, migration, faults)
    and handed back in ``extras["tracer"]``.  ``None`` — the default —
    keeps every instrumentation site on its zero-cost disabled branch.

    ``keep_cluster=True`` retains the live :class:`Cluster` (and any
    attached controller) in ``extras`` for post-run inspection.  It is
    off by default: a cluster pins the whole event heap and every record
    store, so a sweep that holds N results would hold N clusters — and
    parallel sweeps could not ship results between processes at all.

    ``rng_label`` overrides the strategy name in the experiment RNG
    seed.  By default every strategy draws its own workload/arrival
    stream; paired comparisons that must replay the *identical*
    transaction stream under two strategies (e.g. the fingerprint
    parity check of the straggler × clone experiment) pass a shared
    label instead.
    """
    rng = DeterministicRNG(seed, "experiment", rng_label or spec.name)
    if trace is not None:
        trace.meta.setdefault("strategy", spec.name)
        trace.meta.setdefault("seed", seed)
    cluster = Cluster(
        cluster_config,
        spec.make_router(),
        partitioner_factory(),
        overlay=spec.build_overlay(),
        active_nodes=active_nodes,
        stats_window_us=stats_window_us,
        tracer=trace,
    )
    workload = workload_factory(rng.fork("workload"))

    if keys is None:
        keys = workload.all_keys()
    # Loaded records take the size the workload's transactions ship; a
    # workload that declares none loads untracked (0-byte) records.
    cluster.load_data(keys, record_bytes=getattr(workload, "record_bytes", 0))

    attached = spec.attach(cluster) if spec.attach is not None else None
    cluster.metrics.warmup_until = warmup_us
    reset_stats = getattr(cluster.router, "reset_stats", None)
    if reset_stats is not None:
        # Fresh per-run routing counters: the router object may be reused
        # across runs by a caller-built StrategySpec.
        reset_stats()

    if mode == "closed":
        driver = ClosedLoopDriver(
            cluster, workload, num_clients=clients, stop_us=duration_us
        )
    elif mode == "open":
        driver = OpenLoopDriver(
            cluster, workload, rate_per_s, rng.fork("driver"),
            stop_us=duration_us,
        )
    else:
        raise ValueError(f"unknown driver mode {mode!r}")

    if before_run is not None:
        before_run(cluster)
    driver.start()
    cluster.run_until(duration_us)
    end = duration_us
    if drain:
        end = cluster.run_until_quiescent(duration_us * 2)

    metrics = cluster.metrics
    extras: dict = {"submitted": driver.submitted}
    extras["distributed_txn_ratio"] = metrics.distributed_txn_ratio()
    extras["ollp_exhausted"] = metrics.ollp_exhausted
    extras["ollp_exhausted_rate"] = (
        metrics.ollp_exhausted / metrics.commits if metrics.commits else 0.0
    )
    stats_fn = getattr(cluster.router, "stats_snapshot", None)
    if stats_fn is not None:
        extras["router_stats"] = dict(stats_fn())
    # Deterministic occupancy rollup (pure function of the simulation);
    # host-dependent numbers like peak RSS stay out of extras so fleet
    # runs remain bit-identical across process boundaries — the perf /
    # nightly layers sample peak_rss_mb() themselves.
    extras["store_usage"] = cluster.store_usage()
    if trace is not None:
        extras["tracer"] = trace
    if keep_cluster:
        extras["cluster"] = cluster
        extras["attached"] = attached
    result = cluster_result(spec.name, cluster, end, extras)
    if not keep_cluster:
        cluster.close()
    return result


def cluster_result(
    strategy: str, cluster: Cluster, end_us: float, extras: dict
) -> ExperimentResult:
    """The :class:`ExperimentResult` of a run that ended at ``end_us``,
    read off its cluster's metrics."""
    metrics = cluster.metrics
    pcts = metrics.latency_percentiles_us((0.5, 0.95, 0.99))
    return ExperimentResult(
        strategy=strategy,
        commits=metrics.commits,
        duration_us=end_us,
        throughput_per_s=metrics.throughput_per_second(end_us),
        mean_latency_us=metrics.mean_latency_us(),
        latency_breakdown_us=metrics.latency.averages(),
        cpu_utilization=cluster.cpu_utilization(end_us),
        net_bytes_per_commit=cluster.network_bytes_per_commit(),
        remote_reads=metrics.remote_reads,
        writebacks=metrics.writebacks,
        evictions=metrics.evictions,
        throughput_series=metrics.throughput_series(end_us),
        latency_p50_us=pcts[0.5],
        latency_p95_us=pcts[0.95],
        latency_p99_us=pcts[0.99],
        extras=extras,
    )


def run_google_ycsb(
    spec: StrategySpec,
    ycsb_config: YCSBConfig,
    *,
    cluster_config: ClusterConfig,
    duration_us: float,
    rate_scale: float = GOOGLE_RATE_SCALE,
    seed: int = 7,
    warmup_us: float | None = None,
    stats_window_us: float | None = None,
    partitioner_factory: Callable[[SyntheticGoogleTrace], Partitioner]
    | None = None,
    before_run: Callable[[Cluster], None] | None = None,
    keep_cluster: bool = False,
    trace: Tracer | None = None,
) -> ExperimentResult:
    """The Section 5.2 experiment: YCSB shaped by a Google-style trace.

    The offered (open-loop) rate is the synthetic trace's total-load
    envelope times ``rate_scale`` transactions per second per unit load,
    so throughput curves track the trace exactly as in Figures 2/6.
    The trace is seeded from ``seed`` alone, so every strategy of a
    comparison sees the same load; ``partitioner_factory`` receives it
    (Schism trains offline on a period of the very trace the run
    replays) and defaults to uniform ranges.  ``warmup_us`` /
    ``stats_window_us`` of ``None`` scale with the run length.

    The trace and YCSB modules (and numpy behind them) are imported
    here, so a process that imports the harness for anything else, the
    serving benchmark reading :func:`peak_rss_mb` for one, never loads
    them.
    """
    from repro.workloads.google_trace import SyntheticGoogleTrace
    from repro.workloads.ycsb import GoogleYCSBWorkload

    num_nodes = ycsb_config.num_partitions
    google_trace = SyntheticGoogleTrace(
        bench_trace_config(num_nodes, duration_us / 1e6),
        DeterministicRNG(seed, "trace"),
    )

    def partitioner() -> Partitioner:
        if partitioner_factory is not None:
            return partitioner_factory(google_trace)
        return make_uniform_ranges(ycsb_config.num_keys, num_nodes)

    return run_workload(
        spec,
        cluster_config=cluster_config,
        partitioner_factory=partitioner,
        workload_factory=lambda rng: GoogleYCSBWorkload(
            ycsb_config, google_trace, rng
        ),
        keys=range(ycsb_config.num_keys),
        seed=seed,
        duration_us=duration_us,
        warmup_us=min(2_000_000.0, duration_us / 5)
        if warmup_us is None else warmup_us,
        drain=False,
        mode="open",
        rate_per_s=lambda now_us: rate_scale
        * google_trace.total_load_at(now_us),
        stats_window_us=max(500_000.0, duration_us / 16)
        if stats_window_us is None else stats_window_us,
        before_run=before_run,
        keep_cluster=keep_cluster,
        trace=trace,
    )


def peak_rss_mb() -> float:
    """Peak resident-set size of this process in MiB (0.0 if unknown).

    Process-wide and monotonic (``ru_maxrss`` never decreases), so read
    it as "the run fit in this much memory", not as a per-run delta.
    On Linux it also survives ``fork`` + ``execve``: a process started
    by ``subprocess`` reads max(its launcher's peak at the fork, its
    own).  Wall-clock-free and OS-reported — deterministic enough for
    the BENCH artifact's memory trend, excluded from digests and goldens.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024 * 1024)
    return peak / 1024


def parallel_map(fn, tasks, *, jobs: int | None = None) -> list:
    """Map ``fn`` over ``tasks``, optionally across a process pool.

    The fleet primitive behind the figure comparisons: each task is one
    independent simulation run (a strategy × sweep-point × seed triple,
    encoded as picklable primitives), ``fn`` is a module-level worker
    that rebuilds the specs/workloads inside the child process and runs
    it.  Results always come back in *submission* order — ``imap``
    preserves it regardless of which worker finishes first — and every
    run seeds its own :class:`DeterministicRNG` from the task, so a
    parallel sweep is bit-identical to the serial loop.

    ``jobs=None`` or ``1`` runs serially in-process (no pool overhead,
    ordinary tracebacks, and ``fn``/``tasks`` need not be picklable);
    ``jobs=N`` uses up to N worker processes.
    """
    tasks = list(tasks)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return list(pool.imap(fn, tasks))
