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
``keep_cluster``, ``trace``, ``scale``) are read off the spec itself;
each kind sets its own warm-up and stats window.

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
from repro.bench.harness import ExperimentResult, run_google_ycsb, run_workload
from repro.bench.presets import (
    GOOGLE_BENCH,
    GOOGLE_RATE_SCALE,
    SCALE_PROFILES,
    ScaleProfile,
    bench_cluster_config,
    bench_scale,
)
from repro.bench.specs import StrategySpec, make_strategy
from repro.common.config import ClusterConfig, FusionConfig, RoutingConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.core.fusion_table import FusionTable
from repro.core.provisioning import range_chunks
from repro.engine.cluster import Cluster
from repro.engine.migration import MigrationController
from repro.faults.forecast import FaultyForecaster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ForecastFault, StragglerFault
from repro.forecast.coordinator import FallbackCoordinator
from repro.forecast.detector import MispredictDetector
from repro.forecast.forecasters import (
    EWMAForecaster,
    MarkovForecaster,
    OracleForecaster,
    SeasonalNaiveForecaster,
)
from repro.forecast.router import ForecastRouter
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.router import ReplicationConfig, ReplicationRouter
from repro.storage.partitioning import Partitioner, make_uniform_ranges
from repro.workloads import hotrange
from repro.workloads.google_trace import SyntheticGoogleTrace
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    perfect_partitioner,
)
from repro.workloads.tpcc import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    ITEMS,
    TPCCConfig,
    TPCCWorkload,
    tpcc_partitioner,
)
from repro.workloads.ycsb import RECORD_BYTES, GoogleYCSBWorkload, YCSBConfig


# ----------------------------------------------------------------------
# Reading the spec's cross-cutting knobs
# ----------------------------------------------------------------------


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
        fusion=FusionConfig(capacity=max(200, num_keys // 20)),
        clay_clump_records=max(50, num_keys // 80),
        clay_monitor_interval_us=2_000_000.0,
    )


def _google_setup(
    spec,
    ycsb_overrides: dict | None = None,
    zipf_theta: float = 0.8,
) -> tuple[YCSBConfig, ClusterConfig, float]:
    """Workload, cluster and duration of a Google-YCSB kind.

    The scale profile, when the spec names one, beats
    :data:`GOOGLE_BENCH`; the global hot spot sweeps the keyspace twice
    per run whatever its length.
    """
    profile = scale_profile(spec)
    if profile is None:
        num_nodes, num_keys, seconds = (
            GOOGLE_BENCH["num_nodes"], GOOGLE_BENCH["num_keys"],
            GOOGLE_BENCH["duration_s"],
        )
    else:
        num_nodes, num_keys, seconds = (
            profile.num_nodes, profile.num_keys, profile.duration_s,
        )
    duration_us = _duration_us(spec, seconds)
    overrides = dict(ycsb_overrides or {})
    overrides.setdefault("zipf_theta", zipf_theta)
    overrides.setdefault("global_cycle_us", duration_us / 2)
    ycsb_config = YCSBConfig(
        num_keys=num_keys, num_partitions=num_nodes, **overrides
    )
    return (
        ycsb_config,
        bench_cluster_config(num_nodes),
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
    rate_scale: float = GOOGLE_RATE_SCALE,
    ycsb_overrides: dict | None = None,
    schism_periods: dict[str, tuple[float, float]] | None = None,
) -> ExperimentResult:
    """The Section 5.2 comparison: one strategy on Google-trace YCSB.

    ``schism_periods`` maps a label (e.g. ``"schism1"``) to the fraction
    interval of the run used as its offline training trace.
    """
    setup = _google_setup(spec, ycsb_overrides)
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


def _forecast_spec(
    variant: str,
    *,
    num_nodes: int,
    num_keys: int,
    forecaster_name: str,
    seed: int,
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
    detector = MispredictDetector()
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
            # A mid-run prescient migration, half of node 0's range to
            # node 1, in many small chunks: the plan is still in flight
            # when a fault window degrades the forecast, giving the
            # fallback transition an in-flight migration to cancel.
            half = max(1, max(1, num_keys // num_nodes) // 2)

            def kick() -> None:
                if (not coordinator.controller.active
                        and not router_holder[-1].in_fallback):
                    coordinator.start_migration(
                        range_chunks(0, 1, 0, half, 64)
                    )
            cluster.kernel.call_later(migrate_at_us, kick)
        return coordinator

    return StrategySpec(
        name=variant,
        make_router=make_router,
        make_overlay=lambda: FusionTable(
            FusionConfig(capacity=max(200, num_keys // 20))
        ),
        attach=attach,
    )


def run_forecast(
    spec,
    variant: str,
    *,
    error_level: float,
    forecaster: str = "oracle",
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
    setup = _google_setup(spec, zipf_theta=0.7)
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
            migrate_at_us=0.3 * duration_us,
        ),
        setup,
        GOOGLE_RATE_SCALE,
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

#: The floor on records per replica range of a replication row: about
#: 800 ranges span the key space, never fewer than this many records.
MIN_RANGE_RECORDS = 32


def _replication_spec(
    variant: str,
    num_keys: int,
    *,
    range_records: int,
    provision_interval: int,
    fanout: int = 1,
    routing: RoutingConfig | None = None,
) -> StrategySpec:
    """Strategy spec for one replication-comparison variant.

    ``hermes-replica`` wraps prescient routing in a
    :class:`ReplicationRouter` (forecast-provisioned read replicas,
    deterministic replica-read routing); ``hermes-clone`` additionally
    clones replica-eligible reads to every valid holder (request
    cloning, arXiv 2002.04416).  Neither uses the fusion-table overlay:
    the point of the comparison is replication *bytes* versus migration
    *bytes*, so reads replicate while writes still migrate through the
    plain overlay path.  Replicas are provisioned from the oracle
    forecast.  Other names delegate to :func:`google_spec`.
    """
    if variant not in REPLICATION_VARIANTS:
        return google_spec(variant, num_keys)
    forecaster = OracleForecaster()
    config = ReplicationConfig(
        key_lo=0,
        key_hi=num_keys,
        range_records=range_records,
        provision_interval=provision_interval,
        clone=variant == "hermes-clone",
        fanout=fanout,
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
    )


def _replication_row_spec(
    variant: str, num_keys: int, *, provision_interval: int = 4
) -> StrategySpec:
    """A :func:`run_replication` row's strategy.  Its keyword-only
    parameters are the keys ``params["replication"]`` accepts
    (:data:`REPLICATION_KEYS`)."""
    return _replication_spec(
        variant,
        num_keys,
        range_records=max(MIN_RANGE_RECORDS, num_keys // 800),
        provision_interval=provision_interval,
    )


def run_replication(
    spec,
    name: str,
    *,
    ycsb_overrides: dict | None = None,
    schism_periods: dict[str, tuple[float, float]] | None = None,
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
    setup = _google_setup(spec, ycsb_overrides)
    ycsb_config = setup[0]
    # The worker outlives run_workload, so a before_run capture is all
    # that is needed to harvest byte accounting without keep_cluster.
    cluster_holder: list[Cluster] = []
    result = _run_google_row(
        spec,
        name,
        lambda variant: _replication_row_spec(
            variant, ycsb_config.num_keys, **(replication or {})
        ),
        setup,
        GOOGLE_RATE_SCALE,
        schism_periods,
        before_run=cluster_holder.append,
    )
    (cluster,) = cluster_holder
    migration_records = sum(
        node.records_migrated_in for node in cluster.nodes
    )
    replication_records = cluster.metrics.replica_installs
    result.extras["migration_records"] = migration_records
    result.extras["migration_bytes"] = migration_records * RECORD_BYTES
    result.extras["replication_records"] = replication_records
    result.extras["replication_bytes"] = replication_records * RECORD_BYTES
    result.extras["replica_reads"] = cluster.metrics.replica_reads
    result.extras["cloned_reads"] = cluster.metrics.cloned_reads
    result.extras["forecaster"] = "oracle"
    return result


#: Offered arrivals per second of the straggler run.
STRAGGLER_RATE_PER_S = 2_000.0
#: How many times slower the straggling holder serves.
STRAGGLER_SLOWDOWN = 8.0


def run_straggler_clone(spec, name: str) -> ExperimentResult:
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
    duration_us = _duration_us(spec, 2.5)
    seed = spec.seed
    warm_until_us = duration_us * 0.4
    hotrange_config = hotrange.HotRangeConfig(warm_until_us=warm_until_us)
    cluster_config = bench_cluster_config(hotrange.NUM_NODES)
    warm_epochs = warm_until_us / cluster_config.engine.epoch_us
    # The hot range must be exactly one replica range, and both modes
    # must provision identically for the fingerprint-parity check.
    strategy = _replication_spec(
        name,
        hotrange.NUM_KEYS,
        range_records=hotrange.HOT_RECORDS,
        provision_interval=max(1, int(warm_epochs * 0.8)),
        fanout=2,
        routing=RoutingConfig(balance=False),
    )

    cluster_holder: list[Cluster] = []
    straggler_node = hotrange.CONSUMER_NODES[0]

    def before_run(cluster: Cluster) -> None:
        cluster_holder.append(cluster)
        plan = FaultPlan(events=(
            StragglerFault(
                start_us=warm_until_us,
                duration_us=duration_us - warm_until_us,
                node=straggler_node,
                slowdown=STRAGGLER_SLOWDOWN,
            ),
        ))
        FaultInjector(
            cluster, plan, DeterministicRNG(seed, "straggler-clone")
        ).install()

    result = run_workload(
        strategy,
        cluster_config=cluster_config,
        partitioner_factory=lambda: make_uniform_ranges(
            hotrange.NUM_KEYS, hotrange.NUM_NODES
        ),
        workload_factory=lambda rng: hotrange.HotRangeWorkload(
            hotrange_config, rng
        ),
        keys=range(hotrange.NUM_KEYS),
        duration_us=duration_us,
        # Percentiles must cover only the measured phase: the straggler
        # window, where the reader node owns all the traffic.
        warmup_us=warm_until_us,
        drain=True,
        mode="open",
        rate_per_s=STRAGGLER_RATE_PER_S,
        stats_window_us=duration_us / 16,
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
    result.extras["slowdown"] = STRAGGLER_SLOWDOWN
    holder_count = getattr(
        getattr(router, "directory", None), "holder_count", None
    )
    if holder_count is not None:
        result.extras["hot_range_holders"] = holder_count(0)
    return result


# ----------------------------------------------------------------------
# TPC-C (Figure 11)
# ----------------------------------------------------------------------


#: Cluster width of the TPC-C runs (ten warehouses per node).
TPCC_NUM_NODES = 8
#: Closed-loop clients of the TPC-C runs.
TPCC_CLIENTS = 900


def run_tpcc(
    spec, name: str, *, hot_fraction: float = 0.0
) -> ExperimentResult:
    """Closed-loop TPC-C with a node-0 hot spot: one strategy at one
    hot fraction (the ``tpcc_sweep`` kind runs the whole Figure 11 grid
    of them through one pool)."""
    duration_us = _duration_us(spec, 4.0)
    tpcc_config = TPCCConfig(
        num_warehouses=TPCC_NUM_NODES * 10,
        num_nodes=TPCC_NUM_NODES,
        hot_fraction=hot_fraction,
    )
    clay_monitor_interval_us = min(1_500_000.0, duration_us / 5)
    if name == "clay":
        # TPC-C keys are tuples; Clay's range clumps need an integer
        # keyspace, so Clay migrates whole warehouses: clump id ==
        # warehouse id, realized as warehouse-range reassignment.
        strategy = _clay_tpcc_spec(clay_monitor_interval_us)
    else:
        strategy = make_strategy(
            name,
            fusion=FusionConfig(capacity=4_000),
            clay_monitor_interval_us=clay_monitor_interval_us,
        )
    return run_workload(
        strategy,
        cluster_config=bench_cluster_config(TPCC_NUM_NODES),
        partitioner_factory=lambda: tpcc_partitioner(tpcc_config),
        workload_factory=lambda rng: TPCCWorkload(tpcc_config, rng),
        duration_us=duration_us,
        warmup_us=min(1_000_000.0, duration_us / 5),
        drain=False,
        mode="closed",
        clients=TPCC_CLIENTS,
        stats_window_us=1_000_000.0,
        **_run_knobs(spec),
    )


def _clay_tpcc_spec(monitor_interval_us: float) -> StrategySpec:
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
            for d in range(DISTRICTS_PER_WAREHOUSE):
                keys.append(("dist", clump, d))
                for c in range(CUSTOMERS_PER_DISTRICT):
                    keys.append(("cust", clump, d, c))
            for item in range(ITEMS):
                keys.append(("stock", clump, item))
            return tuple(keys)

    router_holder: list[WarehouseClayRouter] = []

    def make_router():
        router = WarehouseClayRouter()
        router_holder.append(router)
        return router

    def attach(cluster: Cluster):
        controller = ClayController(
            cluster,
            router_holder[-1],
            monitor_interval_us=monitor_interval_us,
        )
        controller.start()
        return controller

    return StrategySpec(
        name="clay",
        make_router=make_router,
        attach=attach,
    )


# ----------------------------------------------------------------------
# Multi-tenant (Figures 12, 13) and scale-out (Figure 14)
# ----------------------------------------------------------------------


#: Closed-loop clients of an unscaled multi-tenant run.
MULTITENANT_CLIENTS = 800


def run_multitenant(
    spec,
    name: str,
    *,
    config: MultiTenantConfig | None = None,
    partitioner_factory: Callable[[MultiTenantConfig], Partitioner]
    = perfect_partitioner,
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
        fusion=FusionConfig(capacity=wl_config.num_keys // 20),
        clay_clump_records=max(50, wl_config.records_per_tenant // 5),
        clay_monitor_interval_us=1_000_000.0,
    )
    return run_workload(
        strategy,
        cluster_config=bench_cluster_config(wl_config.num_nodes),
        partitioner_factory=lambda: partitioner_factory(wl_config),
        workload_factory=lambda rng: MultiTenantWorkload(wl_config, rng),
        duration_us=duration_us,
        warmup_us=min(1_000_000.0, duration_us / 10),
        drain=False,
        mode="closed",
        clients=profile.clients if profile else MULTITENANT_CLIENTS,
        stats_window_us=500_000.0,
        **_run_knobs(spec),
    )


#: Unscaled second at which the scale-out run gains its fourth node.
SCALEOUT_EVENT_AT_S = 4.0
#: Closed-loop clients of the scale-out run.
SCALEOUT_CLIENTS = 600


def run_scaleout(spec, variant: str) -> ExperimentResult:
    """One Figure 14 scale-out scenario.

    Variants: ``squall`` (Calvin + chunked range migration including hot
    records), ``clay+squall`` (Clay plans after its monitoring window),
    ``hermes-nocold-5``, ``hermes-nocold-10`` (fusion only, 5 %/10 %
    capacity), ``hermes-cold-5`` (fusion + cold chunks that skip fused
    records).  A 3-node cluster gains a 4th node at
    :data:`SCALEOUT_EVENT_AT_S`; the hot tenant (25 % of load) occupies the first quarter of node 0.
    """
    wl_config = MultiTenantConfig(
        num_nodes=3,
        tenants_per_node=4,
        hot_mode="fixed",
        fixed_hot_tenant=0,
        hot_share=0.25,
    )
    event_us = SCALEOUT_EVENT_AT_S * bench_scale() * 1e6
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
            clay_clump_records=max(50, wl_config.records_per_tenant // 5),
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
            # ``squall`` and ``hermes-cold-5`` run the same chunks; under
            # Hermes they skip the records the fusion table holds.
            if variant in ("squall", "hermes-cold-5"):
                MigrationController(cluster).start(range_chunks(
                    0, new_node, hot_lo, hot_hi,
                    cluster.config.engine.migration_chunk_records,
                ))
            # clay+squall: the Clay controller reacts on its own once the
            # new node is active; hermes-nocold-*: fusion only.

        cluster.kernel.call_later(event_us, scale_out)

    result = run_workload(
        strategy,
        cluster_config=bench_cluster_config(num_physical),
        partitioner_factory=lambda: perfect_partitioner(wl_config),
        workload_factory=lambda rng: MultiTenantWorkload(wl_config, rng),
        duration_us=_duration_us(spec, 16.0),
        warmup_us=min(1_000_000.0, event_us / 2),
        drain=False,
        mode="closed",
        clients=SCALEOUT_CLIENTS,
        active_nodes=[0, 1, 2],
        before_run=before_run,
        stats_window_us=500_000.0,
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
    initial_nodes: int | None = None,
    resizes: tuple = (),
) -> ExperimentResult:
    """One journaled online-serving run.

    Unlike the bench kinds this drives the :mod:`repro.serve` tick loop:
    arrivals are synthesized per epoch, journaled write-ahead, and the
    journal is replayed and checked byte-for-byte against the live run
    before the result is returned.
    """
    # Deferred: repro.serve pulls in asyncio and the socket frontend,
    # which no other kind (and no `import repro.api`) should pay for.
    from repro.serve.experiment import serving_run

    return serving_run(
        strategy,
        initial_nodes=initial_nodes,
        duration_us=_duration_us(spec, 1.0),
        resizes=tuple(resizes),
        seed=spec.seed,
    )


# ----------------------------------------------------------------------
# The kind registry and the pool worker
# ----------------------------------------------------------------------


def _keyword_only(fn: Callable) -> frozenset[str]:
    """The names of ``fn``'s keyword-only parameters."""
    return frozenset(
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    )


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
        names = _keyword_only(self.run)
        if self.sweep_key is not None:
            names = names - {self.sweep_point} | {self.sweep_key}
        return names


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
    # is no tracer hook to attach and no cluster to keep.
    "serving": Kind(run_serving, unsupported=("trace", "keep_cluster")),
    "straggler_clone": Kind(run_straggler_clone),
}

#: The keys ``params["replication"]`` of the ``replication`` kind
#: accepts; ``run_experiment`` rejects any other by name.
REPLICATION_KEYS = _keyword_only(_replication_row_spec)


def run_task(task: tuple) -> ExperimentResult:
    """Run one ``(spec, strategy[, sweep point])`` task (pool worker)."""
    spec, strategy, *point = task
    kind = KINDS[spec.kind]
    params = {k: v for k, v in spec.params.items() if v is not None}
    if kind.sweep_key is not None:
        params.pop(kind.sweep_key, None)
        (params[kind.sweep_point],) = point
    return kind.run(spec, strategy, **params)
