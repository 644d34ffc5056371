"""Kind workers: how each experiment family builds and runs one row.

:func:`repro.api.run_experiment` fans an
:class:`~repro.api.ExperimentSpec` out into ``(spec, strategy)`` tasks
— ``(spec, strategy, point)`` for the two sweep kinds — and
:func:`run_task` hands each to its kind's ``run_<kind>`` function below,
which assembles the workload, the strategy and the special cases
(Schism's offline partitioning, Clay's monitor, the scale-out event
script) on top of :func:`repro.bench.harness.run_workload`.  Imports
run one way: ``repro.api`` → this module → ``harness``.

A kind's keyword-only parameters *are* its ``spec.params`` keys: the
signature is what reads them, :data:`KINDS` derives the valid-key set
from it, and a key whose value is ``None`` is left at the signature's
default.  The cross-cutting knobs (``seed``, ``duration_s``,
``warmup_us``, ``window_us``, ``keep_cluster``, ``trace``, ``scale``)
are read off the spec itself.

Every run rebuilds its trace, strategy and workload from the spec's
seed inside the worker — which is why a parallel sweep returns
bit-identical results in the same order as the serial one (the serial
path runs the very same workers in-process).  A spec that crosses to a
worker process must pickle: no ``trace``, and only module-level
factories in ``params``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.baselines.schism import schism_partition
from repro.baselines.squall import SquallExecutor
from repro.bench.harness import ExperimentResult, run_google_ycsb, run_workload
from repro.bench.presets import (
    GOOGLE_BENCH,
    SCALE_PROFILES,
    ScaleProfile,
    bench_cluster_config,
    bench_fusion_config,
    bench_scale,
)
from repro.bench.specs import StrategySpec, make_strategy
from repro.common.config import ClusterConfig, FusionConfig, RoutingConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.core.fusion_table import FusionTable
from repro.core.provisioning import (
    ChunkMigration,
    ColdMigrationPlan,
    HybridMigrationPlanner,
)
from repro.engine.cluster import Cluster
from repro.engine.migration import MigrationController
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultyForecaster,
    ForecastFault,
    StragglerFault,
)
from repro.forecast import (
    EWMAForecaster,
    FallbackCoordinator,
    ForecastRouter,
    MarkovForecaster,
    MispredictDetector,
    OracleForecaster,
    SeasonalNaiveForecaster,
)
from repro.replication import (
    ReplicationConfig,
    ReplicationCoordinator,
    ReplicationRouter,
)
from repro.storage.partitioning import Partitioner, make_uniform_ranges
from repro.workloads.google_trace import SyntheticGoogleTrace
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    perfect_partitioner,
)
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload, tpcc_partitioner
from repro.workloads.ycsb import GoogleYCSBWorkload, YCSBConfig


# ----------------------------------------------------------------------
# Reading the spec's cross-cutting knobs
# ----------------------------------------------------------------------


def _or(value, default):
    """``default`` when ``value`` is None (0 and empty stay explicit)."""
    return default if value is None else value


def _duration_us(spec, default_s: float) -> float:
    """The run length: unscaled seconds on the spec, scaled here."""
    return (spec.duration_s or default_s) * bench_scale() * 1e6


def _run_knobs(spec) -> dict:
    """The spec fields every kind hands to ``run_workload`` unchanged."""
    return {
        "seed": spec.seed,
        "keep_cluster": spec.keep_cluster,
        "trace": spec.trace,
    }


def scale_profile(spec) -> ScaleProfile | None:
    """The spec's :data:`SCALE_PROFILES` entry (``None`` when unscaled)."""
    if spec.scale is None:
        return None
    profile = SCALE_PROFILES.get(spec.scale)
    if profile is None:
        raise ValueError(
            f"unknown scale {spec.scale!r}; "
            f"expected one of {sorted(SCALE_PROFILES)}"
        )
    if not KINDS[spec.kind].scalable:
        raise ValueError(
            f"kind {spec.kind!r} does not support the scale axis; "
            "supported kinds: "
            f"{sorted(name for name, kind in KINDS.items() if kind.scalable)}"
        )
    return profile


# ----------------------------------------------------------------------
# Google-YCSB comparisons (Figures 2, 6a, 6b, 7, 8, 9)
# ----------------------------------------------------------------------


def google_spec(name: str, num_keys: int) -> StrategySpec:
    """Strategy spec with Google-bench sizing for the fusion/clay knobs."""
    return make_strategy(
        name,
        fusion=bench_fusion_config(capacity=max(200, num_keys // 20)),
        clay_clump_records=max(50, num_keys // 80),
        clay_monitor_interval_us=2_000_000.0,
        clay_imbalance_tolerance=0.25,
    )


def _google_setup(
    spec,
    num_nodes: int | None,
    num_keys: int | None,
    ycsb_overrides: dict | None = None,
    zipf_theta: float = 0.8,
) -> tuple[YCSBConfig, ClusterConfig, float]:
    """Workload, cluster and duration of a Google-YCSB kind.

    Explicit params beat the scale profile, which beats
    :data:`GOOGLE_BENCH`; the global hot spot sweeps the keyspace twice
    per run whatever its length.
    """
    profile = scale_profile(spec)
    if profile is None:
        nodes, keys, seconds, backend = (
            GOOGLE_BENCH["num_nodes"], GOOGLE_BENCH["num_keys"],
            GOOGLE_BENCH["duration_s"], "dict",
        )
    else:
        nodes, keys, seconds, backend = (
            profile.num_nodes, profile.num_keys,
            profile.duration_s, profile.store_backend,
        )
    num_nodes = _or(num_nodes, nodes)
    duration_us = _duration_us(spec, seconds)
    overrides = dict(ycsb_overrides or {})
    overrides.setdefault("zipf_theta", zipf_theta)
    overrides.setdefault("global_cycle_us", duration_us / 2)
    ycsb_config = YCSBConfig(
        num_keys=_or(num_keys, keys), num_partitions=num_nodes, **overrides
    )
    return (
        ycsb_config,
        bench_cluster_config(num_nodes, store_backend=backend),
        duration_us,
    )


def _run_google_row(
    spec,
    name: str,
    strategy_for: Callable[[str], StrategySpec],
    setup: tuple[YCSBConfig, ClusterConfig, float],
    rate_scale: float,
    schism_periods: dict | None = None,
    before_run: Callable[[Cluster], None] | None = None,
) -> ExperimentResult:
    """One row of a Google-YCSB comparison.

    A name listed in ``schism_periods`` runs Calvin over the
    partitioning Schism trains offline on that fraction interval of the
    run, as in Figure 6(a); any other name is built by ``strategy_for``
    and runs over uniform ranges.
    """
    ycsb_config, cluster_config, duration_us = setup
    period = (schism_periods or {}).get(name)
    if period is None:
        strategy, partitioner = strategy_for(name), None
    else:
        strategy = make_strategy("calvin")
        strategy.name = name
        lo_frac, hi_frac = period

        def partitioner(trace: SyntheticGoogleTrace) -> Partitioner:
            return _schism_train(
                ycsb_config, trace, lo_frac * duration_us,
                hi_frac * duration_us, spec.seed,
            )

    return run_google_ycsb(
        strategy,
        ycsb_config,
        cluster_config=cluster_config,
        duration_us=duration_us,
        rate_scale=rate_scale,
        warmup_us=spec.warmup_us,
        stats_window_us=spec.window_us,
        partitioner_factory=partitioner,
        before_run=before_run,
        **_run_knobs(spec),
    )


def _schism_train(
    ycsb_config: YCSBConfig,
    trace: SyntheticGoogleTrace,
    period_lo_us: float,
    period_hi_us: float,
    seed: int,
    samples: int = 4_000,
) -> Partitioner:
    """Offline Schism training: sample the workload over one period."""
    workload = GoogleYCSBWorkload(
        ycsb_config, trace, DeterministicRNG(seed, "schism-train")
    )
    span = period_hi_us - period_lo_us
    txns = [
        workload.make_txn(i, period_lo_us + span * i / samples)
        for i in range(samples)
    ]
    return schism_partition(
        txns,
        num_keys=ycsb_config.num_keys,
        num_nodes=ycsb_config.num_partitions,
        range_records=max(50, ycsb_config.num_keys // 200),
    )


def run_google(
    spec,
    name: str,
    *,
    num_nodes: int | None = None,
    num_keys: int | None = None,
    rate_scale: float = 4_500.0,
    ycsb_overrides: dict | None = None,
    schism_periods: dict[str, tuple[float, float]] | None = None,
) -> ExperimentResult:
    """The Section 5.2 comparison: one strategy on Google-trace YCSB.

    ``schism_periods`` maps a label (e.g. ``"schism1"``) to the fraction
    interval of the run used as its offline training trace.
    """
    setup = _google_setup(spec, num_nodes, num_keys, ycsb_overrides)
    ycsb_config = setup[0]
    return _run_google_row(
        spec, name, lambda n: google_spec(n, ycsb_config.num_keys),
        setup, rate_scale, schism_periods,
    )


# ----------------------------------------------------------------------
# Forecast robustness (de-oracled Hermes)
# ----------------------------------------------------------------------

#: The forecast-driven strategy variants `_forecast_spec` understands,
#: beyond the plain baselines (`calvin`, `clay`, `hermes`).
FORECAST_VARIANTS = (
    "hermes-oracle", "hermes-forecast", "hermes-forecast-nofallback",
)


def _make_forecaster(
    name: str, rng: DeterministicRNG, num_nodes: int, num_keys: int
):
    """A learned forecaster by name (``oracle``/``ewma``/``markov``/
    ``seasonal``), sized for a uniform-range integer keyspace."""
    if name == "oracle":
        return OracleForecaster()
    if name == "ewma":
        return EWMAForecaster(rng)
    if name == "markov":
        keys_per_node = max(1, -(-num_keys // num_nodes))
        return MarkovForecaster(
            rng,
            num_partitions=num_nodes,
            partition_of=lambda key: min(num_nodes - 1, key // keys_per_node),
        )
    if name == "seasonal":
        return SeasonalNaiveForecaster(rng)
    raise ConfigurationError(f"unknown forecaster {name!r}")


def _forecast_cold_plan(
    num_keys: int, num_nodes: int, chunk_records: int = 64
) -> ColdMigrationPlan:
    """A mid-run prescient migration: half of node 0's range to node 1.

    Many small chunks, so the plan is still in flight when a fault
    window degrades the forecast — giving the fallback transition an
    in-flight prescient migration to cancel.
    """
    per_node = max(1, num_keys // num_nodes)
    hi = max(1, per_node // 2)
    chunks = []
    for start in range(0, hi, chunk_records):
        stop = min(start + chunk_records, hi)
        chunks.append(ChunkMigration(
            src=0, dst=1, keys=tuple(range(start, stop)),
            range_reassign=(start, stop),
        ))
    return ColdMigrationPlan(tuple(chunks))


def _forecast_spec(
    variant: str,
    *,
    num_nodes: int,
    num_keys: int,
    forecaster_name: str,
    seed: int,
    detector_params: dict | None = None,
    migrate_at_us: float | None = None,
) -> StrategySpec:
    """Strategy spec for one robustness-curve variant.

    ``hermes-oracle`` routes through a :class:`ForecastRouter` whose
    oracle fast path makes it plan-identical to plain ``hermes``;
    ``hermes-forecast`` plans on a learned (and fault-injectable)
    forecast with graceful fallback; ``hermes-forecast-nofallback`` is
    the ablation that never stops trusting the forecast.  Plain
    baseline names delegate to :func:`google_spec`.
    """
    if variant not in FORECAST_VARIANTS:
        return google_spec(variant, num_keys)
    rng = DeterministicRNG(seed, "forecast", variant)
    if variant == "hermes-oracle":
        forecaster = OracleForecaster()
    else:
        inner = _make_forecaster(forecaster_name, rng, num_nodes, num_keys)
        forecaster = FaultyForecaster(
            inner, rng, key_universe=range(num_keys)
        )
    detector = MispredictDetector(**(detector_params or {}))
    fallback = variant != "hermes-forecast-nofallback"
    router_holder: list[ForecastRouter] = []

    def make_router() -> ForecastRouter:
        router = ForecastRouter(
            forecaster, fallback_enabled=fallback, detector=detector
        )
        router_holder.append(router)
        return router

    def attach(cluster: Cluster) -> FallbackCoordinator:
        coordinator = FallbackCoordinator(cluster, router_holder[-1])
        if migrate_at_us is not None:
            def kick() -> None:
                if (not coordinator.controller.active
                        and not router_holder[-1].in_fallback):
                    coordinator.start_migration(
                        _forecast_cold_plan(num_keys, num_nodes)
                    )
            cluster.kernel.call_later(migrate_at_us, kick)
        return coordinator

    return StrategySpec(
        name=variant,
        make_router=make_router,
        make_overlay=lambda: FusionTable(
            bench_fusion_config(capacity=max(200, num_keys // 20))
        ),
        attach=attach,
        notes="forecast-driven prescient routing",
    )


def run_forecast(
    spec,
    variant: str,
    *,
    error_level: float,
    forecaster: str = "oracle",
    num_nodes: int | None = None,
    num_keys: int | None = None,
    rate_scale: float = 4_500.0,
    detector: dict | None = None,
) -> ExperimentResult:
    """One robustness-curve point: variant × forecast-error level.

    Strategies may mix plain baselines (``calvin``/``clay``/``hermes``)
    with the :data:`FORECAST_VARIANTS`; the error level is the severity
    of the ``magnitude_error`` forecast fault injected mid-run, so it
    only affects the two learned-forecast variants and baselines repeat
    unchanged across levels as flat reference lines.
    """
    # The curve was calibrated at YCSB's default skew, not the 0.8 the
    # figure comparisons use; the pinned preset result digests hold it.
    setup = _google_setup(spec, num_nodes, num_keys, zipf_theta=0.7)
    ycsb_config, _cluster_config, duration_us = setup
    seed = spec.seed

    # The fault window covers the middle of the run and *ends* well
    # before it does, so detection, cancellation, and recovery (the
    # closing `forecast_fallback` span) all land inside the run.
    fault_plan = None
    if error_level > 0 and variant in (
        "hermes-forecast", "hermes-forecast-nofallback"
    ):
        fault_plan = FaultPlan(events=(
            ForecastFault(
                start_us=0.35 * duration_us,
                duration_us=0.40 * duration_us,
                kind="magnitude_error",
                severity=error_level,
            ),
        ))

    def before_run(cluster: Cluster) -> None:
        if fault_plan is not None:
            FaultInjector(
                cluster, fault_plan, DeterministicRNG(seed, "forecast-chaos")
            ).install()

    result = _run_google_row(
        spec,
        variant,
        lambda name: _forecast_spec(
            name,
            num_nodes=ycsb_config.num_partitions,
            num_keys=ycsb_config.num_keys,
            forecaster_name=forecaster,
            seed=seed,
            detector_params=detector,
            migrate_at_us=0.3 * duration_us,
        ),
        setup,
        rate_scale,
        before_run=before_run,
    )
    result.extras["error_level"] = error_level
    result.extras["forecaster"] = forecaster
    return result


# ----------------------------------------------------------------------
# Adaptive read replication (replication vs. migration trade-off)
# ----------------------------------------------------------------------

#: The replica-provisioned strategy variants `_replication_spec`
#: understands, beyond the plain baselines (`calvin`, `clay`, `hermes`,
#: and `schism*` via an offline-trained partitioner).
REPLICATION_VARIANTS = ("hermes-replica", "hermes-clone")


def _replication_spec(
    variant: str,
    *,
    num_nodes: int,
    num_keys: int,
    forecaster_name: str,
    seed: int,
    replication_params: dict | None = None,
) -> StrategySpec:
    """Strategy spec for one replication-comparison variant.

    ``hermes-replica`` wraps prescient routing in a
    :class:`ReplicationRouter` (forecast-provisioned read replicas,
    deterministic replica-read routing); ``hermes-clone`` additionally
    clones replica-eligible reads to every valid holder (request
    cloning, arXiv 2002.04416).  Neither uses the fusion-table overlay:
    the point of the comparison is replication *bytes* versus migration
    *bytes*, so reads replicate while writes still migrate through the
    plain overlay path.  Other names delegate to :func:`google_spec`.
    """
    if variant not in REPLICATION_VARIANTS:
        return google_spec(variant, num_keys)
    params = dict(replication_params or {})
    rng = DeterministicRNG(seed, "replication", variant)
    forecaster = _make_forecaster(forecaster_name, rng, num_nodes, num_keys)
    config = ReplicationConfig(
        key_lo=0,
        key_hi=num_keys,
        range_records=params.get("range_records", max(32, num_keys // 800)),
        provision_interval=params.get("provision_interval", 4),
        max_ranges_per_cycle=params.get("max_ranges_per_cycle", 8),
        clone=variant == "hermes-clone",
        fanout=params.get("fanout", 1),
        side_store_budget=params.get("side_store_budget"),
    )
    routing_params = params.get("routing")
    routing = (
        RoutingConfig(**routing_params)
        if routing_params is not None
        else None
    )
    router_holder: list[ReplicationRouter] = []

    def make_router() -> ReplicationRouter:
        router = ReplicationRouter(forecaster, config, routing)
        router_holder.append(router)
        return router

    def attach(cluster: Cluster) -> ReplicationCoordinator:
        return ReplicationCoordinator(cluster, router_holder[-1])

    return StrategySpec(
        name=variant,
        make_router=make_router,
        attach=attach,
        notes="forecast-provisioned read replicas over prescient routing",
    )


def run_replication(
    spec,
    name: str,
    *,
    num_nodes: int | None = None,
    num_keys: int | None = None,
    rate_scale: float = 4_500.0,
    ycsb_overrides: dict | None = None,
    schism_periods: dict[str, tuple[float, float]] | None = None,
    forecaster: str = "oracle",
    replication: dict | None = None,
) -> ExperimentResult:
    """One row of the replication-vs-migration comparison: a baseline
    or a :data:`REPLICATION_VARIANTS` entry on the Google-YCSB workload.

    Extras carry the trade-off figure's axes: ``migration_bytes``
    (records that changed owner × record size) against
    ``replication_bytes`` (records copied into replica side-stores ×
    record size), plus the distributed-transaction ratio and p99 the
    harness already reports.
    """
    setup = _google_setup(spec, num_nodes, num_keys, ycsb_overrides)
    ycsb_config = setup[0]
    # The worker outlives run_workload, so a before_run capture is all
    # that is needed to harvest byte accounting without keep_cluster.
    cluster_holder: list[Cluster] = []
    result = _run_google_row(
        spec,
        name,
        lambda variant: _replication_spec(
            variant,
            num_nodes=ycsb_config.num_partitions,
            num_keys=ycsb_config.num_keys,
            forecaster_name=forecaster,
            seed=spec.seed,
            replication_params=replication,
        ),
        setup,
        rate_scale,
        schism_periods,
        before_run=cluster_holder.append,
    )
    (cluster,) = cluster_holder
    record_bytes = ycsb_config.record_bytes
    migration_records = sum(
        node.records_migrated_in for node in cluster.nodes
    )
    replication_records = sum(
        node.records_replicated_in for node in cluster.nodes
    )
    result.extras["migration_records"] = migration_records
    result.extras["migration_bytes"] = migration_records * record_bytes
    result.extras["replication_records"] = replication_records
    result.extras["replication_bytes"] = replication_records * record_bytes
    result.extras["replica_reads"] = cluster.metrics.replica_reads
    result.extras["cloned_reads"] = cluster.metrics.cloned_reads
    result.extras["forecaster"] = forecaster
    return result


#: Cluster size the straggler × clone scenario is written for: hot
#: range at node 0, consumer localities at 1 and 2, reader at 3.
_STRAGGLER_CLONE_NODES = 4


def run_straggler_clone(
    spec,
    name: str,
    *,
    num_keys: int = 4_000,
    hot_records: int = 50,
    rate_per_s: float = 2_000.0,
    slowdown: float = 8.0,
    replication: dict | None = None,
) -> ExperimentResult:
    """One straggler × clone-mode run (typically ``hermes-replica`` vs
    ``hermes-clone``).

    The :class:`~repro.workloads.hotrange.HotRangeWorkload` warm phase
    provisions replicas of node 0's hot range at the consumer nodes;
    the measured phase reads it exclusively from node 3 while a
    :class:`~repro.faults.plan.StragglerFault` slows holder node 1.
    Without cloning, holder load-balancing routes about half the hot
    reads to the straggler; with cloning every valid holder serves the
    key and the master proceeds on the first arrival, so the tail
    collapses.  Two routing knobs keep the comparison clean:

    * prescient *count*-balancing is off — it is speed-unaware, so it
      would shed reader transactions onto the straggler's master queue,
      a slowness no read-side hedge can fix (the ``hermes-nobalance``
      ablation precedent);
    * ``provision_interval`` is long enough that the one warm-phase
      provision cycle installs the consumer copies and the reader
      node's own demand cannot immediately self-install a local copy
      (which would localize every hot read and make cloning vacuous).

    Both variants run with ``fanout=2`` so their install plans (and
    txn-id streams) match — the drained state fingerprint, shipped in
    extras so callers can assert cloning changed the tail and never the
    state, must be identical across the pair.
    """
    from repro.workloads.hotrange import HotRangeConfig, HotRangeWorkload

    duration_us = _duration_us(spec, 2.5)
    seed = spec.seed
    warm_until_us = duration_us * 0.4
    hotrange_config = HotRangeConfig(
        num_keys=num_keys,
        num_nodes=_STRAGGLER_CLONE_NODES,
        hot_records=hot_records,
        warm_until_us=warm_until_us,
    )
    params = dict(replication or {})
    # The hot range must be exactly one replica range, and both modes
    # must provision identically for the fingerprint-parity check.
    params.setdefault("range_records", hot_records)
    params.setdefault("fanout", 2)
    cluster_config = bench_cluster_config(_STRAGGLER_CLONE_NODES)
    warm_epochs = warm_until_us / cluster_config.engine.epoch_us
    params.setdefault(
        "provision_interval", max(1, int(warm_epochs * 0.8))
    )
    params.setdefault("routing", {"balance": False})
    strategy = _replication_spec(
        name,
        num_nodes=_STRAGGLER_CLONE_NODES,
        num_keys=num_keys,
        forecaster_name="oracle",
        seed=seed,
        replication_params=params,
    )

    cluster_holder: list[Cluster] = []
    straggler_node = hotrange_config.consumer_nodes[0]

    def before_run(cluster: Cluster) -> None:
        cluster_holder.append(cluster)
        plan = FaultPlan(events=(
            StragglerFault(
                start_us=warm_until_us,
                duration_us=duration_us - warm_until_us,
                node=straggler_node,
                slowdown=slowdown,
            ),
        ))
        FaultInjector(
            cluster, plan, DeterministicRNG(seed, "straggler-clone")
        ).install()

    result = run_workload(
        strategy,
        cluster_config=cluster_config,
        partitioner_factory=lambda: make_uniform_ranges(
            num_keys, _STRAGGLER_CLONE_NODES
        ),
        workload_factory=lambda rng: HotRangeWorkload(
            hotrange_config, rng
        ),
        keys=range(num_keys),
        duration_us=duration_us,
        # Percentiles must cover only the measured phase: the straggler
        # window, where the reader node owns all the traffic.
        warmup_us=warm_until_us,
        drain=True,
        mode="open",
        rate_per_s=rate_per_s,
        stats_window_us=_or(spec.window_us, duration_us / 16),
        before_run=before_run,
        # Both variants must replay the *same* arrival stream or the
        # fingerprint-parity check is vacuous.
        rng_label="straggler-clone",
        **_run_knobs(spec),
    )
    (cluster,) = cluster_holder
    router = cluster.router
    result.extras["fingerprint"] = cluster.state_fingerprint()
    result.extras["cloned_reads"] = cluster.metrics.cloned_reads
    result.extras["replica_reads"] = cluster.metrics.replica_reads
    result.extras["straggler_node"] = straggler_node
    result.extras["slowdown"] = slowdown
    holder_count = getattr(
        getattr(router, "directory", None), "holder_count", None
    )
    if holder_count is not None:
        result.extras["hot_range_holders"] = holder_count(0)
    return result


# ----------------------------------------------------------------------
# TPC-C (Figure 11)
# ----------------------------------------------------------------------


def run_tpcc(
    spec,
    name: str,
    *,
    hot_fraction: float = 0.0,
    num_nodes: int = 8,
    clients: int = 900,
) -> ExperimentResult:
    """Closed-loop TPC-C with a node-0 hot spot: one strategy at one
    hot fraction (the ``tpcc_sweep`` kind runs the whole Figure 11 grid
    of them through one pool)."""
    duration_us = _duration_us(spec, 4.0)
    tpcc_config = TPCCConfig(
        num_warehouses=num_nodes * 10,
        num_nodes=num_nodes,
        hot_fraction=hot_fraction,
    )
    clay_monitor_interval_us = min(1_500_000.0, duration_us / 5)
    if name == "clay":
        # TPC-C keys are tuples; Clay's range clumps need an integer
        # keyspace, so Clay migrates whole warehouses: clump id ==
        # warehouse id, realized as warehouse-range reassignment.
        strategy = _clay_tpcc_spec(tpcc_config, clay_monitor_interval_us)
    else:
        strategy = make_strategy(
            name,
            fusion=bench_fusion_config(capacity=4_000),
            clay_monitor_interval_us=clay_monitor_interval_us,
        )
    return run_workload(
        strategy,
        cluster_config=bench_cluster_config(num_nodes),
        partitioner_factory=lambda: tpcc_partitioner(tpcc_config),
        workload_factory=lambda rng: TPCCWorkload(tpcc_config, rng),
        duration_us=duration_us,
        warmup_us=_or(spec.warmup_us, min(1_000_000.0, duration_us / 5)),
        drain=False,
        mode="closed",
        clients=clients,
        stats_window_us=_or(spec.window_us, 1_000_000.0),
        **_run_knobs(spec),
    )


def _clay_tpcc_spec(
    tpcc_config: TPCCConfig, monitor_interval_us: float = 1_500_000.0
) -> StrategySpec:
    """Clay over TPC-C: clumps are warehouses, moved via the warehouse
    range map inside the KeyedPartitioner."""
    from repro.baselines.clay import ClayController, ClayRouter

    class WarehouseClayRouter(ClayRouter):
        def __init__(self) -> None:
            super().__init__(clump_records=1)

        def clump_of(self, key):  # clump id == warehouse id
            return key[1]

        def clump_probe_key(self, clump: int):
            return ("wh", clump)

        def clump_keys(self, clump: int):
            keys = [("wh", clump)]
            for d in range(tpcc_config.districts_per_warehouse):
                keys.append(("dist", clump, d))
                for c in range(tpcc_config.customers_per_district):
                    keys.append(("cust", clump, d, c))
            for item in range(tpcc_config.items):
                keys.append(("stock", clump, item))
            return tuple(keys)

    router_holder: list[WarehouseClayRouter] = []

    def make_router():
        router = WarehouseClayRouter()
        router_holder.append(router)
        return router

    def attach(cluster: Cluster):
        executor = SquallExecutor(cluster)
        controller = ClayController(
            cluster,
            router_holder[-1],
            executor,
            monitor_interval_us=monitor_interval_us,
        )
        # Clumps reassign through the warehouse range map (KeyedPartitioner
        # inner map), not integer key ranges, so patch home lookup: the
        # ownership.static is the KeyedPartitioner; its reassign happens
        # via chunk range_reassign=None (keys move in the overlay).
        controller.start()
        return controller

    return StrategySpec(
        name="clay",
        make_router=make_router,
        attach=attach,
        notes="clay with warehouse-granularity clumps",
    )


# ----------------------------------------------------------------------
# Multi-tenant (Figures 12, 13) and scale-out (Figure 14)
# ----------------------------------------------------------------------


def run_multitenant(
    spec,
    name: str,
    *,
    config: MultiTenantConfig | None = None,
    partitioner_factory: Callable[[MultiTenantConfig], Partitioner]
    = perfect_partitioner,
    clients: int | None = None,
) -> ExperimentResult:
    """Closed-loop multi-tenant workload (moving hot spot by default).

    With ``jobs>1`` a custom ``partitioner_factory`` must be a
    module-level function (it is shipped to the worker processes); the
    default :func:`perfect_partitioner` is.
    """
    profile = scale_profile(spec)
    if config is not None:
        wl_config = config
    elif profile is not None:
        tenants_per_node = 4
        wl_config = MultiTenantConfig(
            num_nodes=profile.num_nodes,
            tenants_per_node=tenants_per_node,
            records_per_tenant=profile.num_keys
            // (profile.num_nodes * tenants_per_node),
            rotation_interval_us=500_000.0 * profile.num_nodes,
        )
    else:
        wl_config = MultiTenantConfig(
            num_nodes=4,
            tenants_per_node=4,
            records_per_tenant=2_500,
            rotation_interval_us=2_500_000.0,
        )
    duration_us = _duration_us(spec, profile.duration_s if profile else 8.0)
    strategy = make_strategy(
        name,
        fusion=bench_fusion_config(capacity=wl_config.num_keys // 20),
        clay_clump_records=max(50, wl_config.records_per_tenant // 5),
        clay_monitor_interval_us=1_000_000.0,
    )
    return run_workload(
        strategy,
        cluster_config=bench_cluster_config(
            wl_config.num_nodes,
            store_backend=profile.store_backend if profile else "dict",
        ),
        partitioner_factory=lambda: partitioner_factory(wl_config),
        workload_factory=lambda rng: MultiTenantWorkload(wl_config, rng),
        duration_us=duration_us,
        warmup_us=_or(spec.warmup_us, min(1_000_000.0, duration_us / 10)),
        drain=False,
        mode="closed",
        clients=_or(clients, profile.clients if profile else 800),
        stats_window_us=_or(spec.window_us, 500_000.0),
        **_run_knobs(spec),
    )


def run_scaleout(
    spec,
    variant: str,
    *,
    event_at_s: float = 4.0,
    clients: int = 600,
    records_per_tenant: int = 2_500,
) -> ExperimentResult:
    """One Figure 14 scale-out scenario.

    Variants: ``squall`` (Calvin + chunked range migration including hot
    records), ``clay+squall`` (Clay plans after its monitoring window),
    ``hermes-nocold-5``, ``hermes-nocold-10`` (fusion only, 5 %/10 %
    capacity), ``hermes-cold-5`` (fusion + cold chunks that skip fused
    records).  A 3-node cluster gains a 4th node at ``event_at_s``; the
    hot tenant (25 % of load) occupies the first quarter of node 0.
    """
    wl_config = MultiTenantConfig(
        num_nodes=3,
        tenants_per_node=4,
        records_per_tenant=records_per_tenant,
        hot_mode="fixed",
        fixed_hot_tenant=0,
        hot_share=0.25,
    )
    event_us = event_at_s * bench_scale() * 1e6
    hot_lo, hot_hi = wl_config.tenant_range(0)
    new_node = 3
    num_physical = 4

    capacity_pct = {"hermes-nocold-5": 5, "hermes-nocold-10": 10,
                    "hermes-cold-5": 5}

    if variant == "squall":
        strategy = make_strategy("calvin")
    elif variant == "clay+squall":
        strategy = make_strategy(
            "clay",
            clay_clump_records=max(50, records_per_tenant // 5),
            clay_monitor_interval_us=2_000_000.0,
        )
    elif variant in capacity_pct:
        capacity = wl_config.num_keys * capacity_pct[variant] // 100
        strategy = make_strategy(
            "hermes", fusion=FusionConfig(capacity=capacity)
        )
    else:
        raise ValueError(f"unknown scale-out variant {variant!r}")
    strategy.name = variant

    def before_run(cluster: Cluster) -> None:
        def scale_out() -> None:
            cluster.announce_topology(range(num_physical))
            if variant == "squall":
                SquallExecutor(cluster).migrate_range(0, new_node, hot_lo, hot_hi)
            elif variant == "hermes-cold-5":
                planner = HybridMigrationPlanner(
                    chunk_records=cluster.config.engine.migration_chunk_records
                )
                _topology, cold_plan = planner.plan_scale_out(
                    [0, 1, 2], new_node, [(0, hot_lo, hot_hi)]
                )
                MigrationController(cluster).start(cold_plan)
            # clay+squall: the Clay controller reacts on its own once the
            # new node is active; hermes-nocold-*: fusion only.

        cluster.kernel.call_later(event_us, scale_out)

    result = run_workload(
        strategy,
        cluster_config=bench_cluster_config(num_physical),
        partitioner_factory=lambda: perfect_partitioner(wl_config),
        workload_factory=lambda rng: MultiTenantWorkload(wl_config, rng),
        duration_us=_duration_us(spec, 16.0),
        warmup_us=_or(spec.warmup_us, min(1_000_000.0, event_us / 2)),
        drain=False,
        mode="closed",
        clients=clients,
        active_nodes=[0, 1, 2],
        before_run=before_run,
        stats_window_us=_or(spec.window_us, 500_000.0),
        **_run_knobs(spec),
    )
    result.extras["event_us"] = event_us
    return result


# ----------------------------------------------------------------------
# Online serving (simulated time, replay-verified)
# ----------------------------------------------------------------------


def run_serving(
    spec,
    strategy: str,
    *,
    num_nodes: int = 4,
    num_keys: int = 10_000,
    initial_nodes: int | None = None,
    epoch_us: float = 5_000.0,
    rate_per_s: float = 2_000.0,
    rw_ratio: float = 0.2,
    resizes: tuple = (),
    verify: bool = True,
) -> ExperimentResult:
    """One journaled online-serving run.

    Unlike the bench kinds this drives the :mod:`repro.serve` tick loop:
    arrivals are synthesized per epoch, journaled write-ahead, and (by
    default) the journal is replayed and checked byte-for-byte against
    the live run before the result is returned.
    """
    # Deferred: repro.serve pulls in asyncio and the socket frontend,
    # which no other kind (and no `import repro.api`) should pay for.
    from repro.serve.experiment import serving_run

    return serving_run(
        strategy,
        num_nodes=num_nodes,
        num_keys=num_keys,
        initial_nodes=initial_nodes,
        epoch_us=epoch_us,
        duration_us=_duration_us(spec, 1.0),
        rate_per_s=rate_per_s,
        rw_ratio=rw_ratio,
        resizes=tuple(resizes),
        seed=spec.seed,
        verify=verify,
    )


# ----------------------------------------------------------------------
# The kind registry and the pool worker
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Kind:
    """One experiment family: how a row runs and what a spec may ask.

    ``run(spec, strategy, **params)`` runs one row; its keyword-only
    parameters are the kind's ``spec.params`` keys.  A sweep kind runs
    every strategy at every point listed under ``params[sweep_key]``
    (``sweep_default`` when absent; ``None`` makes the key required),
    binding each point to ``run``'s ``sweep_point`` keyword.
    ``scalable`` says ``run`` consults the spec's ``scale`` axis;
    ``unsupported`` names spec fields the kind cannot honour, so setting
    one is an error rather than a silently ignored knob.
    """

    run: Callable[..., ExperimentResult]
    sweep_key: str | None = None
    sweep_point: str | None = None
    sweep_default: tuple | None = None
    scalable: bool = False
    unsupported: tuple[str, ...] = ()

    @property
    def valid_params(self) -> frozenset[str]:
        names = {
            name
            for name, param in inspect.signature(self.run).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        }
        if self.sweep_key is not None:
            names = names - {self.sweep_point} | {self.sweep_key}
        return frozenset(names)


KINDS: dict[str, Kind] = {
    "google": Kind(run_google, scalable=True),
    "tpcc": Kind(run_tpcc),
    # A grid holds strategies × points live clusters at once.
    "tpcc_sweep": Kind(
        run_tpcc, sweep_key="hot_fractions", sweep_point="hot_fraction",
        unsupported=("keep_cluster",),
    ),
    "multitenant": Kind(run_multitenant, scalable=True),
    "scaleout": Kind(run_scaleout),
    "forecast_robustness": Kind(
        run_forecast, sweep_key="error_levels", sweep_point="error_level",
        sweep_default=(0.0, 0.3, 0.6, 0.9), scalable=True,
    ),
    "replication": Kind(run_replication),
    # ServeCore owns its cluster and its arrival-tick accounting: there
    # is no tracer hook, no warm-up phase and no stats window to set.
    "serving": Kind(
        run_serving,
        unsupported=("trace", "keep_cluster", "warmup_us", "window_us"),
    ),
    "straggler_clone": Kind(run_straggler_clone),
}


def run_task(task: tuple) -> ExperimentResult:
    """Run one ``(spec, strategy[, sweep point])`` task (pool worker)."""
    spec, strategy, *point = task
    kind = KINDS[spec.kind]
    params = {k: v for k, v in spec.params.items() if v is not None}
    if kind.sweep_key is not None:
        params.pop(kind.sweep_key, None)
        (params[kind.sweep_point],) = point
    return kind.run(spec, strategy, **params)
