"""The microbenchmark scenarios.

Each scenario is a deterministic, self-contained workload over one of the
simulator's hot paths.  A scenario returns the number of *work units* it
completed (callbacks dispatched, timers resolved, messages delivered,
transactions routed, kernel events processed) so that the same logical
work is counted regardless of internal implementation — which is what
makes the numbers comparable across kernel/router rewrites.

``scale`` shrinks or grows every scenario uniformly; ``--quick`` uses
``scale=0.1`` so the CI smoke job finishes in seconds.
"""

from __future__ import annotations

from typing import Callable

from repro.common.config import (
    ClusterConfig,
    CostModel,
    EngineConfig,
    FusionConfig,
)
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.core.router import ClusterView, OwnershipView
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.engine.executor import RETRY_POLICY
from repro.sim.kernel import Delay, Kernel
from repro.sim.network import Network
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.base import ClosedLoopDriver
from repro.workloads.multitenant import (
    MultiTenantConfig,
    MultiTenantWorkload,
    perfect_partitioner,
)


def _noop(*_args) -> None:
    pass


def calibration(scale: float) -> int:
    """Machine-speed reference: plain Python call + tuple churn.

    Regression comparisons normalize every bench by this number, so a
    committed baseline from one machine is comparable on another (CI
    runners are slower than dev boxes by a roughly uniform factor).
    """
    n = max(1, int(2_000_000 * scale))
    acc = 0
    f = _noop
    for i in range(n):
        f(i, acc)
        acc = (acc + i) & 0xFFFF
    return n


def kernel_dispatch(scale: float) -> int:
    """Zero-delay callback chains with a resident far-future timer pool.

    Models the dominant kernel traffic of a cluster run: every process
    step and event trigger is a ``call_soon``, while thousands of retry
    and window timers sit in the heap.  Work unit: one dispatched
    callback.
    """
    kernel = Kernel()
    for i in range(2_000):
        kernel.call_later(1e12 + i, _noop)
    n = max(1, int(300_000 * scale))
    remaining = [n]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            kernel.call_soon(tick)

    chains = 4
    for _ in range(chains):
        kernel.call_soon(tick)
    kernel.run_until(1e11)
    return n + chains


def kernel_timers(scale: float) -> int:
    """Timer schedule/cancel churn.

    Every ``send_reliable`` leaves a timeout timer that is logically dead
    the moment the message delivers; this scenario schedules ``n`` timers
    and cancels every other one (on kernels without cancellable handles
    the dead timers simply fire into a no-op, which is exactly the old
    cost being measured).  Work unit: one timer resolved.
    """
    kernel = Kernel()
    n = max(2, int(150_000 * scale))
    for i in range(n):
        handle = kernel.call_later(float((i * 7919) % 10_000 + 1), _noop)
        if i % 2 and handle is not None and hasattr(handle, "cancel"):
            handle.cancel()
    kernel.run()
    return n


def kernel_e2e(scale: float) -> int:
    """End-to-end kernel microbench: processes, events, hops, timeouts.

    One hundred generator processes each run rounds of the canonical
    simulated request pattern: arm a long timeout (the ``send_reliable``
    retry timer), submit a request that crosses the simulated "wire"
    (one short timer) and then traverses an eight-stage zero-delay
    hand-off chain — the sequencer → router → lock → executor → reply
    hops a transaction makes through the engine, each a ``call_soon`` —
    before triggering the client's event; then disarm the timeout and
    pay think time.  The zero-delay:timer mix (~3:1) matches what
    instrumented cluster runs produce, where ``call_soon`` dominates.
    Work unit: one completed round, identical logical work on any
    kernel (on kernels without cancellable handles the timeouts simply
    stay queued and fire into no-ops — exactly the old cost).
    """
    kernel = Kernel()
    n_procs = 100
    n_rounds = max(1, int(1_250 * scale))
    pipeline_hops = 8

    def hop(remaining: int, event: "object", value: int) -> None:
        if remaining == 0:
            event.trigger(value)
        else:
            kernel.call_soon(hop, remaining - 1, event, value)

    def client(_pid: int):
        for round_no in range(n_rounds):
            event = kernel.event()
            timeout = kernel.call_later(10_000.0, _noop)
            kernel.call_later(5.0, hop, pipeline_hops, event, round_no)
            yield event
            if timeout is not None and hasattr(timeout, "cancel"):
                timeout.cancel()
            yield Delay(1.0)

    for pid in range(n_procs):
        kernel.process(client(pid), name=f"perf-client-{pid}")
    kernel.run()
    return n_procs * n_rounds


class _GuardedComponent:
    """A component instrumented the way the engine is: it holds a
    ``tracer`` attribute that is ``None`` when tracing is disabled."""

    __slots__ = ("tracer",)

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer


def tracer_overhead(scale: float) -> int:
    """``kernel_e2e`` run under the disabled-tracer guard discipline.

    Identical logical work to :func:`kernel_e2e`, plus the
    instrumentation pattern the engine's hot paths now carry::

        tracer = self.tracer
        if tracer is not None:
            tracer.instant(...)

    with the tracer disabled (``None``) — exactly what benchmarks and
    tests run.  The guard placement mirrors the engine's discipline:
    one ``self.tracer`` read per method activation and a ``None`` check
    per *transaction stage* (dispatch, stage completion, commit) — the
    kernel's dispatch loops themselves are hook-free by design, so no
    guard runs per kernel event.  The ``--compare`` gate holds this
    score to within 3 % of the same run's ``kernel_e2e`` score,
    bounding what observability costs when it is off.  Work unit: one
    completed round.
    """
    kernel = Kernel()
    component = _GuardedComponent(tracer=None)
    n_procs = 100
    n_rounds = max(1, int(1_250 * scale))
    pipeline_hops = 8

    def hop(remaining: int, event: "object", value: int) -> None:
        if remaining == 0:
            event.trigger(value)
        else:
            kernel.call_soon(hop, remaining - 1, event, value)

    def client(_pid: int):
        for round_no in range(n_rounds):
            # Per-activation hoist + dispatch guard (the scheduler's).
            # One round (~a dozen kernel events) corresponds to one
            # engine method activation, which hoists self.tracer once
            # and branches per emission site on the hoisted local.
            tracer = component.tracer
            if tracer is not None:
                tracer.txn_dispatched(round_no, round_no, "perf", 0, (), 1)
            event = kernel.event()
            timeout = kernel.call_later(10_000.0, _noop)
            kernel.call_later(5.0, hop, pipeline_hops, event, round_no)
            yield event
            if timeout is not None and hasattr(timeout, "cancel"):
                timeout.cancel()
            # Commit guard (the runtime's commit emission site).
            if tracer is not None:
                tracer.commit(round_no, 0, False)
            yield Delay(1.0)

    for pid in range(n_procs):
        kernel.process(client(pid), name=f"perf-client-{pid}")
    kernel.run()
    return n_procs * n_rounds


def digest_overhead(scale: float) -> int:
    """``kernel_e2e`` with the event-stream digest *enabled*.

    Identical logical work to :func:`kernel_e2e`, but the kernel carries
    a live :class:`repro.sanitize.digest.StreamDigest`, so every
    dispatched event is folded into the BLAKE2b fingerprint the
    dual-replay divergence detector compares.  This tracks what turning
    the sanitizer on costs; the *disabled* cost (the hoisted
    ``digest is None`` guard that every run now pays) is bounded by
    ``kernel_e2e`` itself, whose gate compares against baselines
    recorded before the guard existed.  Work unit: one completed round.
    """
    from repro.sanitize.digest import StreamDigest

    kernel = Kernel()
    kernel.attach_digest(StreamDigest())
    n_procs = 100
    n_rounds = max(1, int(1_250 * scale))
    pipeline_hops = 8

    def hop(remaining: int, event: "object", value: int) -> None:
        if remaining == 0:
            event.trigger(value)
        else:
            kernel.call_soon(hop, remaining - 1, event, value)

    def client(_pid: int):
        for round_no in range(n_rounds):
            event = kernel.event()
            timeout = kernel.call_later(10_000.0, _noop)
            kernel.call_later(5.0, hop, pipeline_hops, event, round_no)
            yield event
            if timeout is not None and hasattr(timeout, "cancel"):
                timeout.cancel()
            yield Delay(1.0)

    for pid in range(n_procs):
        kernel.process(client(pid), name=f"perf-client-{pid}")
    kernel.run()
    return n_procs * n_rounds


def network_send(scale: float) -> int:
    """Reliable message waves across a 4-node fabric.

    Work unit: one delivered message (send + receive + retry-timer
    resolution on the fault-free path).
    """
    kernel = Kernel()
    network = Network(kernel, CostModel())
    policy = RETRY_POLICY
    n = max(1, int(40_000 * scale))
    concurrency = 200
    sent = [0]
    delivered = [0]

    def launch() -> None:
        if sent[0] >= n:
            return
        index = sent[0]
        sent[0] += 1
        src = index % 4
        dst = (index + 1) % 4
        network.send_reliable(
            src, dst, 1024, arrive, policy, describe="perf"
        )

    def arrive() -> None:
        delivered[0] += 1
        launch()

    for _ in range(concurrency):
        launch()
    kernel.run()
    return delivered[0]


#: Generated routing inputs, cached per shape: batch generation is setup,
#: not the code under measurement, and transactions are immutable so the
#: same batches can be replayed against every router and repeat.
_BATCH_CACHE: dict[tuple[int, int, int, int], list[Batch]] = {}


def _routing_batches(
    num_batches: int, batch_size: int, num_keys: int, keys_per_txn: int
) -> list[Batch]:
    shape = (num_batches, batch_size, num_keys, keys_per_txn)
    cached = _BATCH_CACHE.get(shape)
    if cached is not None:
        return cached
    rng = DeterministicRNG(11, "perf-routing")
    batches = []
    txn_id = 0
    for epoch in range(1, num_batches + 1):
        txns = []
        for _ in range(batch_size):
            txn_id += 1
            # Zipf-ish: half the accesses in a hot 5% of the keyspace.
            keys = set()
            while len(keys) < keys_per_txn:
                if rng.random() < 0.5:
                    keys.add(rng.randint(0, num_keys // 20 - 1))
                else:
                    keys.add(rng.randint(0, num_keys - 1))
            ordered = sorted(keys)
            txns.append(
                Transaction.read_write(
                    txn_id, ordered, ordered[: keys_per_txn // 2]
                )
            )
        batches.append(Batch(epoch=epoch, txns=txns))
    _BATCH_CACHE[shape] = batches
    return batches


def routing(scale: float) -> int:
    """Batch routing throughput: prescient (hermes) + calvin.

    Work unit: one routed transaction.  Each router gets its own view so
    fusion state evolves exactly as in a real run.
    """
    num_nodes = 8
    num_keys = 20_000
    num_batches = max(1, int(40 * scale))
    batch_size = 200
    total = 0
    for make_router, overlay in (
        (PrescientRouter, FusionTable(FusionConfig(capacity=1_000))),
        (CalvinRouter, None),
    ):
        router = make_router()
        view = ClusterView(
            range(num_nodes),
            OwnershipView(make_uniform_ranges(num_keys, num_nodes), overlay),
        )
        for batch in _routing_batches(
            num_batches, batch_size, num_keys, keys_per_txn=8
        ):
            plan = router.route_batch(batch, view)
            total += len(plan.plans)
    return total


def end_to_end(scale: float) -> int:
    """A small full-cluster run (sequencer → router → locks → executors).

    The multi-tenant workload on 4 nodes under the prescient router —
    the same machinery every figure benchmark drives.  Work unit: one
    committed transaction — the same logical work regardless of how
    many internal kernel events an implementation needs for it.
    """
    wl_config = MultiTenantConfig(
        num_nodes=4,
        tenants_per_node=2,
        records_per_tenant=250,
        rotation_interval_us=200_000.0,
    )
    cluster = Cluster(
        ClusterConfig(
            num_nodes=4,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        PrescientRouter(),
        perfect_partitioner(wl_config),
        overlay=FusionTable(FusionConfig(capacity=200)),
    )
    cluster.load_data(range(wl_config.num_keys))
    workload = MultiTenantWorkload(
        wl_config, DeterministicRNG(5, "perf-e2e")
    )
    duration_us = max(50_000.0, 1_500_000.0 * scale)
    driver = ClosedLoopDriver(
        cluster, workload, num_clients=100, stop_us=duration_us
    )
    driver.start()
    cluster.run_until(duration_us)
    return cluster.metrics.commits


#: Side-channel for host-dependent measurements (peak RSS, resident
#: bytes).  Scenarios deposit ``{name: {...}}`` here; the CLI copies the
#: entry into the corresponding ``BenchResult.extras`` after measuring.
#: Kept out of the events/s score so the regression gate stays a pure
#: throughput comparison.
SCENARIO_EXTRAS: dict[str, dict] = {}


def scale_sim(scale: float) -> int:
    """Million-key scale-out smoke: 2M keys / 50 nodes / array store.

    The fig12_scale shape (multi-tenant workload, hermes routing) at the
    "2m" scale profile.  The *keyspace and cluster width are fixed* —
    shrinking them would change what is being measured — so ``scale``
    only scales the simulated duration.  Work unit: one committed
    transaction.  Deposits peak RSS and store bookkeeping bytes into
    :data:`SCENARIO_EXTRAS` (host-dependent, so not part of the score).
    """
    from repro.bench.harness import peak_rss_mb
    from repro.bench.presets import SCALE_PROFILES, bench_cluster_config

    profile = SCALE_PROFILES["2m"]
    tenants_per_node = 4
    wl_config = MultiTenantConfig(
        num_nodes=profile.num_nodes,
        tenants_per_node=tenants_per_node,
        records_per_tenant=profile.num_keys
        // (profile.num_nodes * tenants_per_node),
        rotation_interval_us=500_000.0 * profile.num_nodes,
    )
    cluster = Cluster(
        bench_cluster_config(profile.num_nodes),
        PrescientRouter(),
        perfect_partitioner(wl_config),
        overlay=FusionTable(FusionConfig(capacity=2_000)),
    )
    cluster.load_data(range(wl_config.num_keys))
    workload = MultiTenantWorkload(
        wl_config, DeterministicRNG(12, "perf-scale")
    )
    duration_us = max(50_000.0, 400_000.0 * scale)
    driver = ClosedLoopDriver(
        cluster, workload, num_clients=profile.clients, stop_us=duration_us
    )
    driver.start()
    cluster.run_until(duration_us)
    usage = cluster.store_usage()
    SCENARIO_EXTRAS["scale_sim"] = {
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "store_memory_mb": round(usage["store_memory_bytes"] / 2**20, 1),
        "records": int(usage["records"]),
        "num_nodes": profile.num_nodes,
    }
    return cluster.metrics.commits


def scale_sim_20m(scale: float) -> int:
    """Full-scale smoke: 20M keys / 100 nodes / array store.

    The full DESIGN §15 scale target, far too heavy for per-PR CI — the
    weekly workflow runs it on a schedule and archives the RSS extras.
    Like :func:`scale_sim`, the keyspace and cluster width are fixed
    and ``scale`` only scales the simulated duration.  Work unit: one
    committed transaction.
    """
    from repro.bench.harness import peak_rss_mb
    from repro.bench.presets import SCALE_PROFILES, bench_cluster_config

    profile = SCALE_PROFILES["20m"]
    tenants_per_node = 4
    wl_config = MultiTenantConfig(
        num_nodes=profile.num_nodes,
        tenants_per_node=tenants_per_node,
        records_per_tenant=profile.num_keys
        // (profile.num_nodes * tenants_per_node),
        rotation_interval_us=500_000.0 * profile.num_nodes,
    )
    cluster = Cluster(
        bench_cluster_config(profile.num_nodes),
        PrescientRouter(),
        perfect_partitioner(wl_config),
        overlay=FusionTable(FusionConfig(capacity=2_000)),
    )
    cluster.load_data(range(wl_config.num_keys))
    workload = MultiTenantWorkload(
        wl_config, DeterministicRNG(12, "perf-scale20m")
    )
    duration_us = max(50_000.0, 200_000.0 * scale)
    driver = ClosedLoopDriver(
        cluster, workload, num_clients=profile.clients, stop_us=duration_us
    )
    driver.start()
    cluster.run_until(duration_us)
    usage = cluster.store_usage()
    SCENARIO_EXTRAS["scale_sim_20m"] = {
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "store_memory_mb": round(usage["store_memory_bytes"] / 2**20, 1),
        "records": int(usage["records"]),
        "num_nodes": profile.num_nodes,
    }
    return cluster.metrics.commits


def replica_reads(scale: float) -> int:
    """Replication-router planning throughput on a read-heavy mix.

    The full per-batch replica pipeline without a cluster: write
    invalidations, validity lookups, and the rewrite pass that moves
    remote reads onto replica holders — plus fresh installs each epoch
    so the directory churns the way a live provisioner drives it.
    Provisioning itself is left unhooked (it is session machinery, not
    planning).  Work unit: one routed transaction.
    """
    from repro.forecast.forecasters import OracleForecaster
    from repro.replication.router import ReplicationConfig, ReplicationRouter

    num_nodes = 8
    num_keys = 20_000
    range_records = 64
    num_batches = max(1, int(40 * scale))
    batch_size = 200
    keys_per_txn = 8

    rng = DeterministicRNG(11, "perf-replica")
    batches = []
    txn_id = 0
    for epoch in range(1, num_batches + 1):
        txns = []
        for index in range(batch_size):
            txn_id += 1
            keys = set()
            while len(keys) < keys_per_txn:
                if rng.random() < 0.5:
                    keys.add(rng.randint(0, num_keys // 20 - 1))
                else:
                    keys.add(rng.randint(0, num_keys - 1))
            ordered = sorted(keys)
            # 1-in-8 transactions write (and so invalidate) one key.
            writes = ordered[:1] if index % 8 == 0 else []
            txns.append(Transaction.read_write(txn_id, ordered, writes))
        batches.append(Batch(epoch=epoch, txns=txns))

    router = ReplicationRouter(
        OracleForecaster(),
        ReplicationConfig(
            key_lo=0, key_hi=num_keys, range_records=range_records
        ),
    )
    view = ClusterView(
        range(num_nodes),
        OwnershipView(make_uniform_ranges(num_keys, num_nodes)),
    )
    directory = router.directory
    hot_ranges = (num_keys // 20) // range_records
    total = 0
    for batch in batches:
        # A provision cycle's worth of installs: the hot 5% of the
        # keyspace lands on two rotating holders per range.
        for rid in range(hot_ranges + 1):
            directory.install(rid, (rid + batch.epoch) % num_nodes,
                              batch.epoch)
            directory.install(rid, (rid + batch.epoch + 3) % num_nodes,
                              batch.epoch)
        plan = router.route_batch(batch, view)
        total += len(plan.plans)
    if router.replica_keys == 0:
        raise RuntimeError("replica_reads bench rewrote nothing")
    return total


#: name → scenario, in report order.
SCENARIOS: dict[str, Callable[[float], int]] = {
    "calibration": calibration,
    "kernel_dispatch": kernel_dispatch,
    "kernel_timers": kernel_timers,
    "kernel_e2e": kernel_e2e,
    "tracer_overhead": tracer_overhead,
    "digest_overhead": digest_overhead,
    "network_send": network_send,
    "routing": routing,
    "replica_reads": replica_reads,
    "end_to_end": end_to_end,
    "scale_sim": scale_sim,
    "scale_sim_20m": scale_sim_20m,
}


def run_scenario(name: str, scale: float = 1.0) -> int:
    """Run one scenario by name; returns its work-unit count."""
    return SCENARIOS[name](scale)
