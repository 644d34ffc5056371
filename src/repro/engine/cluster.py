"""The simulated deterministic database cluster.

Wires sequencer → router → lock manager → per-node executors into one
runnable system.  Usage::

    cluster = Cluster(config, router, static_partitioner)
    cluster.load_data(range(num_keys))
    cluster.submit(txn)                      # or use a workload driver
    cluster.run_until(30_000_000)            # 30 simulated seconds
    print(cluster.metrics.throughput_per_second(cluster.kernel.now))

Determinism: the router is a pure function of the totally ordered input,
lock requests enter the (logically replicated) lock manager in plan
order, and every source of randomness lives in the workload generators.
Two runs with the same submitted transactions produce identical final
states — ``tests/integration/test_determinism.py`` asserts exactly that.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Batch, Key, NodeId, Transaction, TxnKind
from repro.core.router import ClusterView, KeyOverlay, OwnershipView, Router
from repro.engine.executor import TxnRuntime, make_runtime
from repro.engine.locks import LockManager
from repro.engine.metrics import ClusterMetrics
from repro.engine.node import Node
from repro.engine.sequencer import Sequencer
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.storage.partitioning import Partitioner
from repro.storage.store import state_fingerprint
from repro.storage.wal import Checkpoint, CommandLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class Cluster:
    """A complete simulated deployment of one routing strategy."""

    def __init__(
        self,
        config: ClusterConfig,
        router: Router,
        static_partitioner: Partitioner,
        overlay: KeyOverlay | None = None,
        active_nodes: Iterable[NodeId] | None = None,
        stats_window_us: float = 1_000_000.0,
        keep_command_log: bool = False,
        validate_plans: bool = False,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.config = config
        self.router = router
        self.kernel = Kernel()
        self.network = Network(self.kernel, config.costs)
        self.metrics = ClusterMetrics(stats_window_us)
        #: optional structured tracer (see :mod:`repro.obs`); ``None``
        #: keeps every instrumentation site on its zero-cost branch.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.kernel)
        self.lock_manager = LockManager(
            tracer=tracer, digest=self.kernel.digest
        )
        self.nodes: list[Node] = [
            Node(self.kernel, node_id, config, stats_window_us)
            for node_id in range(config.num_nodes)
        ]
        self.ownership = OwnershipView(static_partitioner, overlay)
        actives = (
            list(active_nodes)
            if active_nodes is not None
            else list(range(config.num_nodes))
        )
        for node in actives:
            if not 0 <= node < config.num_nodes:
                raise ConfigurationError(f"active node {node} out of range")
        self.view = ClusterView(actives, self.ownership)
        self.sequencer = Sequencer(
            self.kernel, config.engine, config.costs, self._on_batch,
            tracer=tracer,
        )
        self.command_log = CommandLog() if keep_command_log else None
        self.validate_plans = validate_plans
        self._next_seq = 0
        self._next_txn_id = 0
        self._unfinished = 0
        self._scheduler_free_at = 0.0
        # Router planning counters surface as registry gauges, refreshed
        # per batch (satellite of the forecast work: back-to-back runs
        # read per-run values, not a reused router's stale totals).
        self._router_stats_fn = getattr(router, "stats_snapshot", None)
        self._router_stat_gauges: dict[str, object] | None = None
        self._commit_callbacks: dict[int, list[Callable]] = {}
        self.epochs_delivered = 0
        self.commit_listeners: list[Callable[[TxnRuntime], None]] = []
        self._reorder_buffer: dict[int, Batch] = {}
        self._next_expected_epoch: int | None = None

    # ------------------------------------------------------------------
    # Data loading and client API
    # ------------------------------------------------------------------

    def load_data(self, keys: Iterable[Key], record_bytes: int = 0) -> None:
        """Populate every record at its static home (version 0).

        A contiguous integer ``range`` placed by a segment-aware
        partitioner (:class:`~repro.storage.partitioning.
        RangePartitioner`) takes a bulk path: one ``store.load_range``
        call per (segment ∩ keys) span — a 2M-key load is ~num_nodes
        calls instead of 2M memoized ``home`` lookups, whose memo dict
        alone would dwarf an array-backed store.  Anything else falls
        back to the per-key loop, which also pre-warms the static-home
        cache the routers hit.  ``record_bytes`` tags every loaded
        record's payload size (memory accounting only).
        """
        nodes = self.nodes
        spans = getattr(self.ownership.static, "owner_spans", None)
        if (
            isinstance(keys, range)
            and keys.step == 1
            and len(keys) > 0
            and spans is not None
        ):
            for lo, hi, owner in spans(keys.start, keys.stop):
                nodes[owner].store.load_range(lo, hi, size=record_bytes)
            return
        home_of = self.ownership.home
        for key in keys:
            nodes[home_of(key)].store.load(key, size=record_bytes)

    def next_txn_id(self) -> int:
        """Allocate a unique transaction id."""
        self._next_txn_id += 1
        return self._next_txn_id

    def set_txn_id_floor(self, floor: int) -> None:
        """Reserve ids ``<= floor`` for externally minted transactions.

        Harnesses that pre-mint workload schedules (the chaos suite)
        number those transactions themselves; bumping the floor keeps
        :meth:`next_txn_id` — used by migration chunks and OLLP retries —
        out of that range so commit callbacks never collide.  Never
        lowers the counter.
        """
        self._next_txn_id = max(self._next_txn_id, floor)

    def submit(
        self, txn: Transaction, on_commit: Callable[[TxnRuntime], None] | None = None
    ) -> None:
        """Hand a transaction to the sequencer.

        ``on_commit`` fires when the transaction commits (or aborts) —
        the hook closed-loop clients use to issue their next request.
        """
        if on_commit is not None:
            self._commit_callbacks.setdefault(txn.txn_id, []).append(on_commit)
        self._unfinished += 1
        if txn.is_system():
            self.sequencer.submit_system(txn)
        else:
            self.sequencer.submit(txn)

    def announce_topology(self, active_nodes: Iterable[NodeId]) -> Transaction:
        """Issue the totally ordered topology-change transaction (§3.3)."""
        txn = Transaction(
            txn_id=self.next_txn_id(),
            read_set=frozenset(),
            write_set=frozenset(),
            kind=TxnKind.TOPOLOGY,
            arrival_time=self.kernel.now,
            payload=tuple(sorted(active_nodes)),
        )
        self.submit(txn)
        return txn

    # ------------------------------------------------------------------
    # Batch pipeline
    # ------------------------------------------------------------------

    def _on_batch(self, batch: Batch) -> None:
        self.epochs_delivered += 1
        self.metrics.batches += 1
        if self.command_log is not None:
            self.command_log.append(batch)
        t_sequenced = self.kernel.now
        routing_cost = self.router.routing_cost_us(len(batch), self.config.costs)
        # Every scheduler replica runs the routing algorithm.
        for node_id in self.view.active_nodes:
            self.nodes[node_id].workers.charge_background_cpu(routing_cost)
        plan = self.router.route_batch(batch, self.view)
        if self.validate_plans:
            plan.validate(batch.ids())
        # The scheduler is a serial resource: batch k+1's routing starts
        # only after batch k's finishes.  When routing cost approaches the
        # epoch length (very large batches under prescient routing), the
        # scheduler itself becomes the bottleneck — the downslope of the
        # paper's Figure 10.
        start = max(self.kernel.now, self._scheduler_free_at)
        done = start + routing_cost
        self._scheduler_free_at = done
        self.kernel.call_later(done - self.kernel.now, self._dispatch,
                               plan, t_sequenced)
        digest = self.kernel.digest
        if digest is not None:
            digest.note("sched.route", batch.epoch, len(batch))
        router_stats_fn = self._router_stats_fn
        if router_stats_fn is not None:
            self._sample_router_stats(router_stats_fn())
        tracer = self.tracer
        if tracer is not None:
            tracer.route_batch(batch.epoch, len(batch), start, routing_cost)
            stats = getattr(self.ownership.overlay, "stats_snapshot", None)
            if stats is not None:
                tracer.fusion_sample(
                    batch.epoch, moves=self.ownership.moves_recorded,
                    **stats(),
                )
            router_stats = getattr(self.router, "stats_snapshot", None)
            if router_stats is not None:
                tracer.counter("route", "router_stats", **router_stats())
            for node_id in self.view.active_nodes:
                tracer.node_load(
                    batch.epoch, node_id,
                    **self.nodes[node_id].load_snapshot(),
                )

    def _sample_router_stats(self, stats: dict) -> None:
        """Mirror the router's planning counters into registry gauges.

        Instruments are named ``router_<stat>`` and created once on the
        first batch; the per-batch cost is a dict walk and a float
        store per stat.
        """
        gauges = self._router_stat_gauges
        if gauges is None:
            gauge = self.metrics.registry.gauge
            gauges = self._router_stat_gauges = {
                name: gauge(f"router_{name}") for name in stats
            }
        for name, value in stats.items():
            instrument = gauges.get(name)
            if instrument is None:
                instrument = gauges[name] = self.metrics.registry.gauge(
                    f"router_{name}"
                )
            instrument.set(value)

    def inject_batch(self, batch: Batch) -> None:
        """Feed a pre-ordered batch directly (replay path, bypassing the
        sequencer).  The batch's transactions are accounted as unfinished
        so :meth:`run_until_quiescent` waits for them."""
        self._unfinished += len(batch)
        self._on_batch(batch)

    def inject_batch_ordered(self, batch: Batch) -> None:
        """Inject a batch, buffering until its epoch is next in line.

        WAN replication and crash re-delivery can present epochs out of
        order (a fast link overtaking a slow one, a promoted primary
        cutting new batches while old ones are still in flight).  The
        reorder buffer releases batches strictly in epoch order, so every
        cluster processes the *same* total order — the invariant all the
        determinism guarantees rest on.  The transactions count as
        unfinished from arrival, even while buffered.
        """
        self._unfinished += len(batch)
        self._deliver_in_epoch_order(batch)

    def deliver_ordered(self, batch: Batch) -> None:
        """Epoch-ordered delivery for batches already counted unfinished
        (the sequencer-tee path of a promoted primary)."""
        self._deliver_in_epoch_order(batch)

    def set_next_expected_epoch(self, epoch: int) -> None:
        """Anchor the reorder buffer (used after checkpointed replay,
        where ``epochs_delivered`` no longer equals the last epoch)."""
        self._next_expected_epoch = epoch

    def _deliver_in_epoch_order(self, batch: Batch) -> None:
        if self._next_expected_epoch is None:
            # Lazy anchor: valid whenever delivered epochs are the
            # contiguous prefix 1..epochs_delivered (fresh clusters,
            # replicas fed from epoch 1).
            self._next_expected_epoch = self.epochs_delivered + 1
        if batch.epoch in self._reorder_buffer:
            raise SimulationError(
                f"duplicate injection of epoch {batch.epoch}"
            )
        self._reorder_buffer[batch.epoch] = batch
        while self._next_expected_epoch in self._reorder_buffer:
            ready = self._reorder_buffer.pop(self._next_expected_epoch)
            self._next_expected_epoch += 1
            self._on_batch(ready)

    @property
    def buffered_epochs(self) -> int:
        """Batches parked in the reorder buffer (diagnostics)."""
        return len(self._reorder_buffer)

    def _dispatch(self, plan, t_sequenced: float) -> None:
        """Drain one routed batch: per transaction, build its runtime,
        enqueue its lock requests in plan order, and start it.

        The digest takes one note per batch and the tracer one
        ``txn_dispatched`` per transaction; with neither attached the
        loop touches only metrics, the lock manager and the runtimes.
        """
        digest = self.kernel.digest
        if digest is not None:
            # Dispatch order assigns the lock-acquisition sequence: the
            # exact ordering decision the lint's set-iteration rule
            # protects, so it goes into the stream verbatim.
            digest.note(
                "sched.dispatch", self._next_seq + 1,
                [(p.txn.txn_id, p.coordinator) for p in plan],
            )
        tracer = self.tracer
        now = self.kernel.now
        seq = self._next_seq
        note_dispatch = self.metrics.note_dispatch
        enqueue = self.lock_manager.enqueue
        finished = self._runtime_finished
        for txn_plan in plan:
            seq += 1
            txn = txn_plan.txn
            kind = txn.kind
            if kind is TxnKind.READ_ONLY or kind is TxnKind.READ_WRITE:
                note_dispatch(txn_plan)
            if tracer is not None:
                tracer.txn_dispatched(
                    seq, txn.txn_id, kind.name,
                    txn_plan.coordinator, tuple(sorted(txn_plan.masters)),
                    txn.size,
                )
            runtime = make_runtime(
                self, txn_plan, seq, t_sequenced, now, finished
            )
            granted = runtime.on_lock_granted
            if runtime.local_fast:
                # Keyless grant counter — the bound method itself is the
                # callback, no per-key closure.
                for key, mode in runtime.lock_requests():
                    enqueue(seq, key, mode, granted)
            else:
                for key, mode in runtime.lock_requests():
                    enqueue(seq, key, mode, partial(granted, key))
            runtime.start()
        self._next_seq = seq

    def _runtime_finished(self, runtime: TxnRuntime) -> None:
        self._unfinished -= 1
        callbacks = self._commit_callbacks.pop(runtime.txn.txn_id, ())
        for callback in callbacks:
            callback(runtime)
        for listener in self.commit_listeners:
            listener(runtime)

    # ------------------------------------------------------------------
    # Running and inspection
    # ------------------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Advance simulated time to ``t_end`` microseconds."""
        self.kernel.run_until(t_end)

    def advance_epoch(self) -> float:
        """Advance simulated time through the sequencer's next batch cut.

        The epoch-slaving hook for wall-clock serving
        (:mod:`repro.serve`): each serve tick submits its arrivals and
        advances exactly one sequencer epoch, so simulated time is a
        pure function of the tick count and the journaled arrival
        stream — never of the wall clock.  Returns the new simulated
        time.
        """
        deadline = self.sequencer.next_cut_at
        self.kernel.run_until(deadline)
        return deadline

    def run_until_quiescent(
        self, max_time_us: float, poll_us: float = 100_000.0
    ) -> float:
        """Run until all submitted work commits (or ``max_time_us``).

        Returns the simulated time at which the system drained.  Used by
        tests and by replay, where the input stream is finite.
        """
        while self.kernel.now < max_time_us:
            step = min(poll_us, max_time_us - self.kernel.now)
            self.kernel.run_until(self.kernel.now + step)
            if self._unfinished == 0:
                return self.kernel.now
        return self.kernel.now

    @property
    def inflight(self) -> int:
        """Transactions submitted but not yet finished."""
        return self._unfinished

    def state_fingerprint(self) -> int:
        """Order-independent hash of all record versions and values."""
        return state_fingerprint([node.store for node in self.nodes])

    def placement_snapshot(self) -> dict[NodeId, frozenset[Key]]:
        """Which node physically holds which keys (determinism checks)."""
        return {
            node.node_id: frozenset(node.store.keys()) for node in self.nodes
        }

    def total_records(self) -> int:
        """Records across all stores (conservation check)."""
        return sum(len(node.store) for node in self.nodes)

    def store_usage(self) -> dict[str, float]:
        """Per-node store occupancy, published as registry gauges.

        Refreshes ``store_records`` / ``store_records_peak`` /
        ``store_memory_bytes`` / ``store_data_bytes`` gauges (labelled
        per node) and returns the cluster-wide rollup the harness ships
        in :class:`~repro.bench.harness.ExperimentResult` extras.  Pure
        observability: reads store accounting, mutates nothing.
        """
        gauge = self.metrics.registry.gauge
        total_records = 0
        total_memory = 0
        total_data = 0
        peak_records = 0
        for node in self.nodes:
            store = node.store
            label = str(node.node_id)
            records = len(store)
            memory = store.memory_bytes()
            gauge("store_records", node=label).set(records)
            gauge("store_records_peak", node=label).set(store.records_peak)
            gauge("store_memory_bytes", node=label).set(memory)
            gauge("store_data_bytes", node=label).set(store.data_bytes())
            total_records += records
            total_memory += memory
            total_data += store.data_bytes()
            peak_records = max(peak_records, store.records_peak)
        return {
            "records": float(total_records),
            "records_peak_per_node": float(peak_records),
            "store_memory_bytes": float(total_memory),
            "data_bytes": float(total_data),
        }

    def sequenced_migration_chunks(self) -> list[tuple[int, int, object]]:
        """``(epoch, txn_id, chunk)`` for every MIGRATION transaction in
        the WAL-visible total order, oldest first.

        Requires ``keep_command_log=True`` (returns ``[]`` otherwise).
        This is the durable migration history the placement auditor
        cross-checks and crash recovery resumes from: a chunk present
        here survived the crash by definition, so a resumed plan must
        exclude it.
        """
        if self.command_log is None:
            return []
        chunks: list[tuple[int, int, object]] = []
        for batch in self.command_log:
            for txn in batch:
                if txn.kind is TxnKind.MIGRATION and txn.payload is not None:
                    chunks.append((batch.epoch, txn.txn_id, txn.payload))
        return chunks

    def checkpoint(self) -> Checkpoint:
        """Capture a consistent snapshot tagged with the last epoch.

        Call this only when the cluster is quiescent (no in-flight
        transactions); a checkpoint mid-flight would not be consistent
        with any batch boundary.
        """
        if self._unfinished:
            raise ConfigurationError(
                "checkpoint requires a quiescent cluster; "
                f"{self._unfinished} transactions in flight"
            )
        return Checkpoint.capture(
            self.epochs_delivered, [node.store for node in self.nodes]
        )

    # -- resource usage (Figure 8) ----------------------------------------

    def cpu_utilization(self, until: float) -> float:
        """Mean CPU busy fraction across active nodes since time 0."""
        if until <= 0:
            return 0.0
        total_busy = sum(
            self.nodes[n].workers.busy_us_total for n in self.view.active_nodes
        )
        capacity = (
            until
            * len(self.view.active_nodes)
            * self.config.engine.workers_per_node
        )
        return total_busy / capacity if capacity else 0.0

    def network_bytes_per_commit(self) -> float:
        """Mean bytes on the wire per committed transaction."""
        commits = max(1, self.metrics.commits)
        return self.network.total_bytes() / commits
