"""Transaction execution: one :class:`TxnRuntime` per routed transaction.

The runtime follows the deterministic execution flow of Section 2.1,
generalized so one engine executes every strategy's plans:

1. Lock requests for all keys enter the conservative ordered lock
   manager in plan order (done by the scheduler, see ``cluster.py``).
2. At every node holding some of the transaction's records (a *serve
   location*), once the local locks are granted a worker reads the local
   records and ships them to the master(s).  Records the plan migrates
   leave the source store at this moment and travel inside the message.
3. Each master waits for its local reads plus every remote message, then
   a worker runs the transaction logic, installs migrated-in records,
   and applies local writes.  A transaction's fate (a user abort, or an
   OLLP validation failure) is settled before its first write, so an
   abort writes nothing and needs no undo.  The coordinator master
   commits the transaction.
4. Post-commit, the coordinator pushes write-backs (G-Store/T-Part
   returning records home) and fusion-table evictions (records going
   back to their static homes) — these never delay the commit, matching
   Sections 3.2/4.1.

Lock release points are per key: plain reads release after serving,
written/migrated keys release at their writer's commit, written-back and
evicted keys release once re-installed at their destination.  Those
release points are what make the physical record locations always agree
with the router's deterministic ownership view.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.config import RetryPolicy
from repro.common.types import Key, NodeId, Transaction, TxnKind
from repro.core.plan import TxnPlan
from repro.engine.locks import LockMode
from repro.sim.kernel import SimEvent
from repro.storage.store import Record, RecordStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.cluster import Cluster

#: Fixed size of a control message without record payload.
CONTROL_BYTES = 64

#: Retry schedule of every record shipment (remote read, write-back,
#: eviction).  The first timeout sits well above one network round trip,
#: and twelve doubling attempts ride out partitions of several simulated
#: seconds while adding nothing to fault-free runs.
RETRY_POLICY = RetryPolicy(timeout_us=2_000.0, max_attempts=12)

# Release stages, in increasing precedence: a key involved in several
# actions releases at the latest-stage action.
_STAGE_READ = 0
_STAGE_COMMIT = 1
_STAGE_WRITEBACK = 2
_STAGE_EVICT = 3

# Hoisted enum members: LockMode.X in the classification loop is an
# attribute walk per key, and the loop runs once per transaction.
_S = LockMode.S
_X = LockMode.X

#: Shared empty migration index for the (dominant) migration-free case.
#: Read-only — every consumer goes through ``.get``.
_NO_MOVES: dict = {}


def _item_repr_key(item) -> str:
    return repr(item[0])


def _apply_writes(
    store: RecordStore, txn: Transaction, local_writes: frozenset[Key]
) -> None:
    """Apply a committing transaction's writes at one master.

    ``ordered_keys`` is already repr-sorted and writes are a subset of
    the footprint, so filtering it preserves the deterministic write
    order without re-sorting.
    """
    write = store.write
    txn_id = txn.txn_id
    if len(local_writes) == 1:
        (key,) = local_writes  # sanitize: ok(one element, one order)
        write(key, txn_id)
        return
    for key in txn.ordered_keys:
        if key in local_writes:
            write(key, txn_id)


class _LockGroup:
    """All lock requests a particular node-part waits on."""

    __slots__ = ("keys", "remaining", "event", "granted_at")

    def __init__(self, keys: frozenset[Key], event: SimEvent) -> None:
        self.keys = keys
        self.remaining = len(keys)
        self.event = event
        self.granted_at: float | None = None


class TxnRuntime:
    """Drives one transaction's plan through the simulated cluster."""

    __slots__ = (
        "cluster", "plan", "txn", "seq", "t_sequenced", "t_dispatched",
        "on_finished", "committed", "aborted", "will_abort", "coordinator",
        "t_locks", "t_serve_done", "t_data", "t_commit",
        "_coord_serve_cpu", "_coord_apply_cpu", "_coord_logic_cpu",
        "_data_ready", "_inbox", "_values",
        "_expected_from", "_received_from", "_migrated_by_src",
        "_release_stage", "_lock_mode", "_lock_order_sorted",
        "_all_groups", "_sole_group", "_evict_group", "_groups",
        "_serve_done", "_serve_keys", "_replica_at", "_missing_keys",
    )

    #: Grant callbacks take the granted key (see ``on_lock_granted``);
    #: the single-node fast path uses a keyless counter instead.
    local_fast = False

    def __init__(
        self,
        cluster: "Cluster",
        plan: TxnPlan,
        seq: int,
        t_sequenced: float,
        t_dispatched: float,
        on_finished: Callable[["TxnRuntime"], None],
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        self.txn = plan.txn
        self.seq = seq
        self.t_sequenced = t_sequenced
        self.t_dispatched = t_dispatched
        self.on_finished = on_finished
        self.committed = False
        self.aborted = False

        kernel = cluster.kernel
        self.coordinator = plan.coordinator
        txn = self.txn

        # -- classify keys: lock mode and release stage ---------------------
        write_set = txn.write_set
        ordered_keys = txn.ordered_keys
        replica_reads = plan.replica_reads
        if replica_reads is not None:
            # Replica-served keys take no locks at all: the replication
            # router's batch-granular invalidation guarantees no write is
            # sequenced between a replica's install and this read, so the
            # side-store value is already the serializable one (the whole
            # point — replica reads skip the lock queue *and* the wait).
            lockfree: set[Key] = set()
            for keys in replica_reads.values():
                lockfree.update(keys)
            migrated_keys = (
                {m.key for m in plan.migrations} if plan.migrations else ()
            )
            release_stage: dict[Key, int] = {}
            lock_mode: dict[Key, LockMode] = {}
            for key in ordered_keys:
                if key in lockfree:
                    continue
                if key in write_set or key in migrated_keys:
                    lock_mode[key] = _X
                    release_stage[key] = _STAGE_COMMIT
                else:
                    lock_mode[key] = _S
                    release_stage[key] = _STAGE_READ
        elif plan.migrations:
            migrated_keys = {m.key for m in plan.migrations}
            release_stage: dict[Key, int] = {}
            lock_mode: dict[Key, LockMode] = {}
            for key in ordered_keys:
                if key in write_set or key in migrated_keys:
                    lock_mode[key] = _X
                    release_stage[key] = _STAGE_COMMIT
                else:
                    lock_mode[key] = _S
                    release_stage[key] = _STAGE_READ
        elif len(write_set) == len(ordered_keys):
            # Write-everything transactions (and, symmetrically,
            # read-only ones below) classify in one C-level pass.
            lock_mode = dict.fromkeys(ordered_keys, _X)
            release_stage = dict.fromkeys(ordered_keys, _STAGE_COMMIT)
        elif not write_set:
            lock_mode = dict.fromkeys(ordered_keys, _S)
            release_stage = dict.fromkeys(ordered_keys, _STAGE_READ)
        else:
            release_stage = {}
            lock_mode = {}
            for key in ordered_keys:
                if key in write_set:
                    lock_mode[key] = _X
                    release_stage[key] = _STAGE_COMMIT
                else:
                    lock_mode[key] = _S
                    release_stage[key] = _STAGE_READ
        self._release_stage = release_stage
        self._lock_mode = lock_mode
        # ``lock_mode`` insertion follows ``ordered_keys`` (repr-sorted);
        # only a writeback/eviction key from *outside* the footprint can
        # break that order and force ``lock_requests`` to re-sort.
        in_order = True
        for move in plan.writebacks:
            key = move.key
            if key not in lock_mode:
                in_order = False
            lock_mode[key] = _X
            release_stage[key] = _STAGE_WRITEBACK
        for move in plan.evictions:
            key = move.key
            if key not in lock_mode:
                in_order = False
            lock_mode[key] = _X
            release_stage[key] = _STAGE_EVICT
        self._lock_order_sorted = in_order

        # -- lock groups per serve location ---------------------------------
        self._groups: dict[NodeId, _LockGroup] = {}
        all_groups: list[_LockGroup] = []
        cloned_reads = plan.cloned_reads
        if replica_reads is None and cloned_reads is None:
            self._serve_keys = plan.reads_from
            self._replica_at = _NO_MOVES
            for loc, keys in plan.reads_from.items():
                if keys:
                    group = _LockGroup(keys, kernel.event())
                    self._groups[loc] = group
                    all_groups.append(group)
        else:
            # Serve keys per location = plan reads plus any clones; the
            # lock group at a location covers only its *locked* keys.  A
            # location left without locked keys (pure replica/clone
            # serve) gets no group and serves straight from dispatch.
            replica_at: dict[NodeId, frozenset[Key]] = (
                dict(replica_reads) if replica_reads else {}
            )
            serve_keys: dict[NodeId, frozenset[Key]] = dict(plan.reads_from)
            if cloned_reads:
                for loc, extra in cloned_reads.items():
                    base = replica_at.get(loc)
                    replica_at[loc] = extra if base is None else (base | extra)
                    held = serve_keys.get(loc)
                    serve_keys[loc] = extra if held is None else (held | extra)
            self._replica_at = replica_at
            self._serve_keys = serve_keys
            for loc, keys in plan.reads_from.items():
                lockfree_here = (
                    replica_reads.get(loc) if replica_reads else None
                )
                locked = keys - lockfree_here if lockfree_here else keys
                if locked:
                    group = _LockGroup(locked, kernel.event())
                    self._groups[loc] = group
                    all_groups.append(group)
        self._evict_group: _LockGroup | None = None
        if plan.evictions:
            eviction_keys = frozenset(m.key for m in plan.evictions)
            self._evict_group = _LockGroup(eviction_keys, kernel.event())
            all_groups.append(self._evict_group)
        self._all_groups = all_groups
        # Fast path: when one group covers *every* locked key, grants
        # skip the per-group membership scan entirely.  (Group keys are
        # always a subset of ``lock_mode``, so equal sizes ⇒ coverage.)
        self._sole_group = (
            all_groups[0]
            if len(all_groups) == 1
            and len(all_groups[0].keys) == len(lock_mode)
            else None
        )

        # -- data-ready events per master ------------------------------------
        if plan.migrations:
            by_src: dict[NodeId, list] = {}
            for move in plan.migrations:
                by_src.setdefault(move.src, []).append(move)
            self._migrated_by_src = by_src
        else:
            self._migrated_by_src = _NO_MOVES
        masters = plan.masters
        reads_from = plan.reads_from
        if len(masters) == 1:
            master = masters[0]
            expected = set(reads_from)
            expected.discard(master)
            self._expected_from = {master: expected}
            self._data_ready = {master: kernel.event()}
            self._inbox = {master: []}
            self._received_from = {master: set()}
            self._values = {master: {}}
        else:
            self._expected_from = {
                m: {loc for loc in reads_from if loc != m} for m in masters
            }
            self._data_ready = {m: kernel.event() for m in masters}
            self._inbox = {m: [] for m in masters}
            self._received_from = {m: set() for m in masters}
            self._values = {m: {} for m in masters}
        if cloned_reads is not None:
            # Request cloning: readiness switches from "every expected
            # serve location reported" to "every footprint key has a
            # value" — the master proceeds on the first copy of each key
            # and late clones merely top up idempotent state.
            full_set = txn.full_set
            self._missing_keys: dict[NodeId, set[Key]] | None = {
                m: set(full_set) for m in masters
            }
        else:
            self._missing_keys = None
        self._serve_done: dict[NodeId, float] = {}
        self.will_abort = txn.aborts

        # -- latency probe timestamps at the coordinator ---------------------
        self.t_locks: float | None = None
        self.t_serve_done: float | None = None
        self.t_data: float | None = None
        self.t_commit: float | None = None
        self._coord_serve_cpu = 0.0
        self._coord_apply_cpu = 0.0
        self._coord_logic_cpu = 0.0

    # ------------------------------------------------------------------
    # Lock plumbing (called by the cluster's scheduler)
    # ------------------------------------------------------------------

    def lock_requests(self) -> list[tuple[Key, LockMode]]:
        """Every (key, mode) this transaction must enqueue, deduplicated.

        Insertion order already follows the repr-sort for footprint keys;
        re-sort only when an out-of-footprint writeback/eviction key broke
        it (see ``__init__``).
        """
        items = list(self._lock_mode.items())
        if self._lock_order_sorted:
            return items
        items.sort(key=_item_repr_key)
        return items

    def on_lock_granted(self, key: Key) -> None:
        """Callback from the lock manager; routes the grant to groups.

        A key may belong to several groups (an eviction victim can also
        be a read key), so every matching group is decremented.
        """
        sole = self._sole_group
        if sole is not None:
            sole.remaining -= 1
            if sole.remaining == 0:
                sole.granted_at = self.cluster.kernel.now
                sole.event.trigger()
            return
        for group in self._all_groups:
            if key in group.keys:
                group.remaining -= 1
                if group.remaining == 0:
                    group.granted_at = self.cluster.kernel.now
                    group.event.trigger()

    # ------------------------------------------------------------------
    # Launch: one chain per serve location and per master
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the per-location serve parts and per-master parts.

        Each part is a callback chain.  Its hops are deliberate: the
        entry goes through ``call_soon``, a gate parks on a
        :class:`SimEvent` whose trigger wakes it through ``call_soon``,
        and a worker completion re-enters through ``call_soon`` too.
        Every hop takes a run-queue slot, and those slots fix the order
        in which same-time events of different transactions interleave:
        the order the golden fingerprints and kernel digests pin.
        Folding a hop away changes that order.
        """
        call_soon = self.cluster.kernel.call_soon
        serve_keys = self._serve_keys
        for loc in serve_keys:
            if serve_keys[loc]:
                call_soon(self._serve_entry, loc)
        for master in self.plan.masters:
            call_soon(self._master_entry, master)

    # ------------------------------------------------------------------
    # Phase: serve local reads at one location
    # ------------------------------------------------------------------

    def _serve_entry(self, loc: NodeId) -> None:
        group = self._groups.get(loc)
        if group is None:
            # Pure replica/clone serve location: nothing to lock, serve
            # immediately (mirrors the lock-free master-entry path).
            self._serve_locked(loc)
        else:
            group.event.add_waiter(partial(self._serve_locked, loc))

    def _serve_locked(self, loc: NodeId) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        group = self._groups.get(loc)
        if loc == self.coordinator and self.t_locks is None:
            self.t_locks = (
                group.granted_at if group is not None else self.t_dispatched
            )
        cpu = cluster.config.costs.local_access_us * len(
            self._serve_keys[loc]
        )
        cluster.nodes[loc].workers.submit(
            cpu,
            partial(
                kernel.call_soon, self._serve_executed, loc, cpu, kernel.now
            ),
        )

    def _serve_executed(
        self, loc: NodeId, cpu: float, t_serve_start: float
    ) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        txn = self.txn
        keys = self._serve_keys[loc]
        tracer = cluster.tracer
        if tracer is not None:
            tracer.serve(txn.txn_id, loc, t_serve_start, len(keys))
        self._serve_done[loc] = kernel.now
        if loc == self.coordinator:
            self.t_serve_done = kernel.now
            self._coord_serve_cpu += cpu

        store = cluster.nodes[loc].store
        moves = self._migrated_by_src.get(loc)
        if moves:
            # Physically detach records that migrate away from here.
            values: dict[Key, int] = {}
            records: list[Record] = []
            migrating = [move for move in moves if move.src == loc]
            migrating_keys = {move.key for move in migrating}
            for move in migrating:
                record = store.evict(move.key)
                values[move.key] = record.value
                records.append(record)
            if migrating:
                cluster.nodes[loc].records_migrated_out += len(migrating)
            for key in keys:
                if key not in migrating_keys:
                    values[key] = store.read_value(key)
        else:
            replica_here = self._replica_at.get(loc)
            installs = self.plan.replica_installs
            if replica_here is None and installs is None:
                read = store.read_value
                values = {key: read(key) for key in keys}
                records = []
            else:
                # Replica-served keys come from the node's side-store;
                # install keys ship *copies* (the primary keeps its
                # record — contrast the migration detach above).
                read_value = store.read_value
                replicas = cluster.nodes[loc].replicas
                values = {}
                records = []
                for key in keys:
                    if replica_here is not None and key in replica_here:
                        values[key] = replicas.read(key).value
                    elif installs is not None and key in installs:
                        record = store.read(key)
                        records.append(record)
                        values[key] = record.value
                    else:
                        values[key] = read_value(key)

        masters = self.plan.masters
        if len(masters) > 1 or masters[0] != loc:
            record_bytes = txn.profile.record_bytes
            payload = CONTROL_BYTES + record_bytes * len(keys)
            send_reliable = cluster.network.send_reliable
            metrics = cluster.metrics
            coordinator = self.coordinator
            for master in masters:
                if master == loc:
                    continue
                shipped = records if master == coordinator else []
                send_reliable(
                    loc,
                    master,
                    payload,
                    self._make_delivery(master, loc, shipped, values),
                    RETRY_POLICY,
                    describe=f"remote read txn {txn.txn_id}",
                )
                metrics.remote_reads_total.inc(len(keys))
                if tracer is not None:
                    tracer.remote_read(
                        txn.txn_id, loc, master, len(keys), payload
                    )

        # The master's own serve completion also feeds its data-ready gate.
        if loc in self.plan.masters:
            self._note_data(loc, loc, records, values)

        # Only *locked* keys release here — replica/clone serves hold no
        # locks, and a clone of a primary-served key must not release the
        # lock its primary serve still owns.
        group = self._groups.get(loc)
        if group is not None:
            self._release_stage_keys(loc, group.keys, _STAGE_READ)

    def _make_delivery(
        self,
        master: NodeId,
        loc: NodeId,
        records: list[Record],
        values: dict[Key, int],
    ):
        def deliver() -> None:
            self._note_data(master, loc, records, values)

        return deliver

    def _note_data(
        self,
        master: NodeId,
        loc: NodeId,
        records: list[Record],
        values: dict[Key, int],
    ) -> None:
        # Idempotent redelivery: the reliable channel already suppresses
        # duplicates, but a master must also tolerate a retransmitted
        # read message arriving through any path — installing the same
        # records twice would corrupt the store.
        if loc in self._received_from[master]:
            return
        self._received_from[master].add(loc)
        self._inbox[master].extend(records)
        self._values[master].update(values)
        expected = self._expected_from[master]
        expected.discard(loc)
        missing = self._missing_keys
        if missing is not None:
            hole = missing[master]
            if hole:
                hole.difference_update(values)
        self._maybe_data_ready(master)

    def _maybe_data_ready(self, master: NodeId) -> None:
        missing = self._missing_keys
        if missing is not None:
            # Cloned plans gate on key coverage, not location coverage:
            # the first arriving copy of the last missing key unblocks
            # the master (later copies land in idempotent state).
            if missing[master]:
                return
            event = self._data_ready[master]
            if not event.triggered:
                event.trigger()
            return
        needs_own = (
            master in self.plan.reads_from
            and bool(self.plan.reads_from[master])
            and master not in self._serve_done
        )
        if not self._expected_from[master] and not needs_own:
            event = self._data_ready[master]
            if not event.triggered:
                event.trigger()

    # ------------------------------------------------------------------
    # Phase: master execution (logic + writes + commit)
    # ------------------------------------------------------------------

    def _master_entry(self, master: NodeId) -> None:
        group = self._groups.get(master)
        if group is not None:
            group.event.add_waiter(partial(self._master_locked, master))
        else:
            self._master_locked(master)

    def _master_locked(self, master: NodeId) -> None:
        if master == self.coordinator and self.t_locks is None:
            group = self._groups.get(master)
            self.t_locks = (
                group.granted_at if group is not None else self.t_dispatched
            )
        self._maybe_data_ready(master)
        self._data_ready[master].add_waiter(
            partial(self._master_data, master)
        )

    def _master_data(self, master: NodeId) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        costs = cluster.config.costs
        if master == self.coordinator:
            self.t_data = kernel.now

        txn = self.txn
        incoming = self._inbox[master]
        local_writes = self.plan.writes_at.get(master, frozenset())
        logic_cpu = (
            costs.logic_us_per_record * txn.size * txn.profile.logic_factor
        )
        apply_cpu = (
            costs.local_access_us * len(local_writes)
            + costs.migration_apply_us * len(incoming)
        )
        if txn.aborts:
            # The paper's undo pass, charged though nothing is written.
            apply_cpu += costs.local_access_us * len(local_writes)

        cluster.nodes[master].workers.submit(
            logic_cpu + apply_cpu,
            partial(
                kernel.call_soon, self._master_executed,
                master, logic_cpu, apply_cpu, kernel.now,
            ),
        )

    def _master_executed(
        self,
        master: NodeId,
        logic_cpu: float,
        apply_cpu: float,
        t_exec_start: float,
    ) -> None:
        cluster = self.cluster
        txn = self.txn
        incoming = self._inbox[master]
        local_writes = self.plan.writes_at.get(master, frozenset())
        node = cluster.nodes[master]
        tracer = cluster.tracer
        if tracer is not None:
            tracer.execute(
                txn.txn_id, master, t_exec_start,
                logic_cpu, apply_cpu, len(incoming),
            )
        if incoming:
            if self.plan.replica_installs is not None:
                # Replica-install chunk: copies land in the side-store,
                # never the primary store — placement, fingerprints, and
                # migration counters are untouched.
                install = node.replicas.install
                for record in incoming:
                    install(record)
                node.records_replicated_in += len(incoming)
                cluster.metrics.replica_installs_total.inc(len(incoming))
            else:
                install = node.store.install
                for record in incoming:
                    install(record)
                node.records_migrated_in += len(incoming)

        # OLLP footprint validation (Section 2.1): re-derive the
        # transaction's footprint from the *locked* read-set values; a
        # mismatch means the reconnaissance prediction went stale and the
        # transaction deterministically aborts (to be re-run by OLLP).
        # Every master evaluates the same locked values, so they agree.
        if txn.validator is not None and not self.will_abort:
            if not txn.validator(self._make_value_reader(master)):
                self.will_abort = True

        if local_writes and not self.will_abort:
            _apply_writes(node.store, txn, local_writes)

        if master == self.coordinator:
            self._coord_logic_cpu = logic_cpu
            self._coord_apply_cpu = apply_cpu
            self._commit()

        release_keys = set(local_writes)
        release_keys.update(r.key for r in incoming)
        owned_here = self.plan.reads_from.get(master)
        if owned_here:
            release_stage = self._release_stage
            release_keys.update(
                k
                for k in owned_here
                if release_stage.get(k) == _STAGE_COMMIT
            )
        self._release_stage_keys(master, release_keys, _STAGE_COMMIT)

    # ------------------------------------------------------------------
    # Commit and post-commit work (coordinator only)
    # ------------------------------------------------------------------

    def _make_value_reader(self, master: NodeId):
        """value_of(key) over the transaction's locked footprint at a
        master: local keys from the store, remote keys from the shipped
        read values.  Reading outside the footprint raises — OLLP
        validators may only depend on locked data, or determinism under
        replay would be lost."""
        store = self.cluster.nodes[master].store
        remote = self._values[master]
        footprint = self.txn.full_set

        def value_of(key: Key) -> int:
            if key not in footprint:
                raise KeyError(
                    f"OLLP validator read {key!r} outside the locked "
                    f"footprint of txn {self.txn.txn_id}"
                )
            if key in remote:
                return remote[key]
            return store.read_value(key)

        return value_of

    def _commit(self) -> None:
        cluster = self.cluster
        self.t_commit = cluster.kernel.now
        if self.will_abort:
            self.aborted = True
            cluster.metrics.aborts_total.inc()
        else:
            self.committed = True
            cluster.nodes[self.coordinator].commits += 1
            if not self.txn.is_system():
                cluster.metrics.note_commit(self)
        tracer = cluster.tracer
        if tracer is not None:
            tracer.commit(
                self.txn.txn_id, self.coordinator, self.aborted,
                stages=self.latency_stages() if self.committed else None,
            )
        self._start_writebacks()
        self._start_evictions()
        self.on_finished(self)

    def abandon(self) -> None:
        """Drop the lock-group and data-ready events a closed cluster
        will never fire: their waiters lead back here (see
        ``Cluster.close``)."""
        self._groups = {}
        self._data_ready = {}
        self._all_groups = []
        self._sole_group = self._evict_group = None

    def _start_writebacks(self) -> None:
        if not self.plan.writebacks:
            return
        by_dst: dict[NodeId, list] = {}
        for move in self.plan.writebacks:
            by_dst.setdefault(move.dst, []).append(move)
        for dst, moves in sorted(by_dst.items()):
            self._ship(
                self.coordinator, dst, moves, _STAGE_WRITEBACK, "writeback"
            )

    def _start_evictions(self) -> None:
        if not self.plan.evictions:
            self.cluster.runtime_settled(self)
            return

        def launch() -> None:
            cluster = self.cluster
            cluster.runtime_settled(self)
            by_route: dict[tuple[NodeId, NodeId], list] = {}
            for move in self.plan.evictions:
                by_route.setdefault((move.src, move.dst), []).append(move)
            # Each route first reads its records at the source.
            access_us = cluster.config.costs.local_access_us
            for (src, dst), moves in sorted(by_route.items()):
                cluster.nodes[src].workers.submit(
                    access_us * len(moves),
                    partial(
                        self._ship, src, dst, moves, _STAGE_EVICT, "eviction"
                    ),
                )

        assert self._evict_group is not None
        self._evict_group.event.add_waiter(launch)

    def _ship(
        self, src: NodeId, dst: NodeId, moves: list, stage: int, label: str
    ) -> None:
        """Move ``moves``' records from ``src`` to ``dst``: evict them,
        send them reliably, install them in one burst at ``dst``, then
        release their keys at ``stage``.  ``label`` ("writeback" or
        "eviction") names the message and the trace events."""
        cluster = self.cluster
        txn_id = self.txn.txn_id
        source = cluster.nodes[src]
        records = [source.store.evict(move.key) for move in moves]
        source.records_migrated_out += len(records)
        node = cluster.nodes[dst]

        def installed() -> None:
            install = node.store.install
            for record in records:
                install(record)
            node.records_migrated_in += len(records)
            tracer = cluster.tracer
            if tracer is not None:
                tracer.data_move(
                    f"{label}_install", txn_id, dst, dst, len(records)
                )
            self._release_stage_keys(
                dst, frozenset(r.key for r in records), stage
            )

        cluster.network.send_reliable(
            src,
            dst,
            CONTROL_BYTES + self.txn.profile.record_bytes * len(records),
            partial(
                node.workers.submit,
                cluster.config.costs.migration_apply_us * len(records),
                installed,
            ),
            RETRY_POLICY,
            describe=f"{label} txn {txn_id}",
        )
        if stage == _STAGE_WRITEBACK:
            cluster.metrics.writebacks_total.inc(len(records))
        else:
            cluster.metrics.evictions_total.inc(len(records))
        tracer = cluster.tracer
        if tracer is not None:
            tracer.data_move(f"{label}_send", txn_id, src, dst, len(records))

    # ------------------------------------------------------------------
    # Lock release
    # ------------------------------------------------------------------

    def _release_stage_keys(
        self, node: NodeId, keys: frozenset[Key] | set[Key], stage: int
    ) -> None:
        release_stage = self._release_stage
        release = self.cluster.lock_manager.release
        seq = self.seq
        if len(keys) > 1:
            keys = sorted(keys, key=repr)
        for key in keys:
            if release_stage.get(key) == stage:
                release(seq, key)

    # ------------------------------------------------------------------
    # Latency breakdown (Figure 7 buckets)
    # ------------------------------------------------------------------

    def latency_stages(self) -> dict[str, float]:
        """Additive per-stage latency at the coordinator, in microseconds."""
        t0 = self.t_sequenced
        t1 = self.t_dispatched
        t2 = self.t_locks if self.t_locks is not None else t1
        t3 = self.t_serve_done if self.t_serve_done is not None else t2
        t4 = self.t_data if self.t_data is not None else t3
        t6 = self.t_commit if self.t_commit is not None else t4
        exec_span = max(0.0, t6 - t4)
        logic_and_queue = max(0.0, exec_span - self._coord_apply_cpu)
        return {
            "scheduling": max(0.0, t1 - t0),
            "lock_wait": max(0.0, t2 - t1),
            "local_storage": max(0.0, t3 - t2)
            + min(self._coord_apply_cpu, exec_span),
            "remote_wait": max(0.0, t4 - t3),
            "other": logic_and_queue,
        }

    def total_latency(self) -> float:
        """Client-perceived latency: arrival to commit."""
        if self.t_commit is None:
            return 0.0
        return self.t_commit - self.txn.arrival_time


class LocalTxnRuntime:
    """Single-node fast path: one master that serves every key locally.

    Eligible plans (see :func:`make_runtime`) have exactly one master,
    read only at that master, and carry no migrations, writebacks,
    evictions, or OLLP validator — the dominant plan shape under every
    routing strategy once placement converges.  The chain below replays
    :class:`TxnRuntime`'s callback structure hop for hop (the same
    ``call_soon``/timer count in the same order), so kernel
    interleavings — and hence the integration goldens — are unchanged;
    what it sheds is the SimEvent, lock-group, and per-master dict
    machinery that only distributed plans need.
    """

    local_fast = True

    __slots__ = (
        "cluster", "plan", "txn", "seq", "t_sequenced", "t_dispatched",
        "on_finished", "committed", "aborted", "will_abort",
        "coordinator", "_keys", "_replica",
        "t_locks", "t_serve_done", "t_data", "t_commit",
        "_coord_serve_cpu", "_coord_apply_cpu", "_coord_logic_cpu",
        "_ungranted", "_granted_at", "_serve_parked", "_master_parked",
        "_master_waiting", "_data_arrived",
    )

    def __init__(
        self,
        cluster: "Cluster",
        plan: TxnPlan,
        seq: int,
        t_sequenced: float,
        t_dispatched: float,
        on_finished: Callable,
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        txn = plan.txn
        self.txn = txn
        self.seq = seq
        self.t_sequenced = t_sequenced
        self.t_dispatched = t_dispatched
        self.on_finished = on_finished
        self.committed = False
        self.aborted = False
        self.will_abort = txn.aborts
        master = plan.masters[0]
        self.coordinator = master
        self._keys = plan.reads_from[master]
        # Replica-served keys (all master-local here, by eligibility)
        # take no locks; a fully replica-served read-only transaction
        # starts with zero ungranted locks and serves at dispatch.
        replica = (
            plan.replica_reads.get(master)
            if plan.replica_reads is not None
            else None
        )
        self._replica = replica or None
        self._ungranted = len(txn.ordered_keys) - (
            len(replica) if replica else 0
        )
        # Overwritten by the last grant when any lock exists; the
        # lock-free case reports zero lock wait from dispatch time.
        self._granted_at = t_dispatched
        self._serve_parked = False
        self._master_parked = False
        self._master_waiting = False
        self._data_arrived = False
        self.t_locks: float | None = None
        self.t_serve_done: float | None = None
        self.t_data: float | None = None
        self.t_commit: float | None = None
        self._coord_serve_cpu = 0.0
        self._coord_apply_cpu = 0.0
        self._coord_logic_cpu = 0.0

    # -- lock plumbing --------------------------------------------------

    def lock_requests(self) -> list[tuple[Key, LockMode]]:
        """(key, mode) pairs in deterministic (repr-sorted) order."""
        ws = self.txn.write_set
        ordered = self.txn.ordered_keys
        replica = self._replica
        if replica:
            if ws:
                return [
                    (k, _X if k in ws else _S)
                    for k in ordered
                    if k not in replica
                ]
            return [(k, _S) for k in ordered if k not in replica]
        if ws:
            return [(k, _X if k in ws else _S) for k in ordered]
        return [(k, _S) for k in ordered]

    def on_lock_granted(self) -> None:
        """Keyless grant counter: with a single lock group covering the
        whole footprint, only the count matters."""
        self._ungranted -= 1
        if self._ungranted == 0:
            kernel = self.cluster.kernel
            self._granted_at = kernel.now
            # Waiters wake in registration order (serve, then master),
            # matching the generic runtime's SimEvent trigger.
            if self._serve_parked:
                kernel.call_soon(self._serve_body)
            if self._master_parked:
                kernel.call_soon(self._master_locked)

    # -- the chain ------------------------------------------------------

    def start(self) -> None:
        call_soon = self.cluster.kernel.call_soon
        call_soon(self._serve_entry)
        call_soon(self._master_entry)

    def _serve_entry(self) -> None:
        # Mirrors add_waiter on the lock-group event: already granted →
        # one more hop through the run queue; otherwise park.
        if self._ungranted == 0:
            self.cluster.kernel.call_soon(self._serve_body)
        else:
            self._serve_parked = True

    def _master_entry(self) -> None:
        if self._ungranted == 0:
            self.cluster.kernel.call_soon(self._master_locked)
        else:
            self._master_parked = True

    def _serve_body(self) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        if self.t_locks is None:
            self.t_locks = self._granted_at
        cpu = cluster.config.costs.local_access_us * len(self._keys)
        cluster.nodes[self.coordinator].workers.submit(
            cpu,
            partial(kernel.call_soon, self._serve_executed, cpu, kernel.now),
        )

    def _serve_executed(self, cpu: float, t_serve_start: float) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        master = self.coordinator
        keys = self._keys
        tracer = cluster.tracer
        if tracer is not None:
            tracer.serve(self.txn.txn_id, master, t_serve_start, len(keys))
        self.t_serve_done = kernel.now
        self._coord_serve_cpu += cpu
        node = cluster.nodes[master]
        replica = self._replica
        # Keep these reads: they check placement, and dataflow writes need the values.
        if replica:
            read = node.store.read_value
            replica_read = node.replicas.read
            for key in keys:
                if key in replica:
                    replica_read(key)
                else:
                    read(key)
        else:
            read = node.store.read_value
            for key in keys:
                read(key)
        # Data-ready: the master's own serve is its only input.  The
        # master part always parks first (its entry hop runs before the
        # serve burst timer can fire), but mirror the triggered-event
        # path anyway.
        if self._master_waiting:
            kernel.call_soon(self._master_data)
        else:
            self._data_arrived = True
        # Release read-stage keys, in the same repr-sorted order the
        # generic runtime uses (``ordered_keys`` is already sorted).
        # Replica-served keys were never locked, so there is nothing to
        # release for them.
        ws = self.txn.write_set
        release = cluster.lock_manager.release
        seq = self.seq
        if replica:
            if ws:
                for key in self.txn.ordered_keys:
                    if key not in ws and key not in replica:
                        release(seq, key)
            else:
                for key in self.txn.ordered_keys:
                    if key not in replica:
                        release(seq, key)
        elif ws:
            for key in self.txn.ordered_keys:
                if key not in ws:
                    release(seq, key)
        else:
            for key in self.txn.ordered_keys:
                release(seq, key)

    def _master_locked(self) -> None:
        if self.t_locks is None:
            self.t_locks = self._granted_at
        if self._data_arrived:
            self.cluster.kernel.call_soon(self._master_data)
        else:
            self._master_waiting = True

    def _master_data(self) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        costs = cluster.config.costs
        self.t_data = kernel.now
        txn = self.txn
        local_writes = self.plan.writes_at.get(self.coordinator)
        num_writes = len(local_writes) if local_writes else 0
        logic_cpu = (
            costs.logic_us_per_record * txn.size * txn.profile.logic_factor
        )
        apply_cpu = costs.local_access_us * num_writes
        if txn.aborts:
            # The paper's undo pass, charged though nothing is written.
            apply_cpu += costs.local_access_us * num_writes
        cluster.nodes[self.coordinator].workers.submit(
            logic_cpu + apply_cpu,
            partial(
                kernel.call_soon, self._master_executed,
                logic_cpu, apply_cpu, kernel.now,
            ),
        )

    def _master_executed(
        self, logic_cpu: float, apply_cpu: float, t_exec_start: float
    ) -> None:
        cluster = self.cluster
        txn = self.txn
        master = self.coordinator
        node = cluster.nodes[master]
        tracer = cluster.tracer
        if tracer is not None:
            tracer.execute(
                txn.txn_id, master, t_exec_start, logic_cpu, apply_cpu, 0
            )
        local_writes = self.plan.writes_at.get(master)
        if local_writes and not self.will_abort:
            _apply_writes(node.store, txn, local_writes)
        self._coord_logic_cpu = logic_cpu
        self._coord_apply_cpu = apply_cpu
        self._commit(node)
        # Commit-stage releases are exactly the write set (eligibility
        # rules out migrations/writebacks/evictions), in repr order.
        ws = txn.write_set
        if ws:
            release = cluster.lock_manager.release
            seq = self.seq
            if len(ws) == 1:
                for key in ws:
                    release(seq, key)
            else:
                for key in txn.ordered_keys:
                    if key in ws:
                        release(seq, key)

    def _commit(self, node) -> None:
        cluster = self.cluster
        self.t_commit = cluster.kernel.now
        if self.will_abort:
            self.aborted = True
            cluster.metrics.aborts_total.inc()
        else:
            self.committed = True
            node.commits += 1
            cluster.metrics.note_commit(self)
        tracer = cluster.tracer
        if tracer is not None:
            tracer.commit(
                self.txn.txn_id, self.coordinator, self.aborted,
                stages=self.latency_stages() if self.committed else None,
            )
        self.on_finished(self)

    # Same timestamps, same buckets — reuse the generic implementation.
    latency_stages = TxnRuntime.latency_stages
    total_latency = TxnRuntime.total_latency


def make_runtime(
    cluster: "Cluster",
    plan: TxnPlan,
    seq: int,
    t_sequenced: float,
    t_dispatched: float,
    on_finished: Callable,
) -> "TxnRuntime | LocalTxnRuntime":
    """Pick the cheapest runtime able to execute ``plan``.

    The choice reads only the plan's shape — never a caller-set option,
    never whether a tracer or digest is attached — so a traced run takes
    the same path as the run it is meant to explain (the dispatch
    differential suite compares their kernel digests).

    ``LocalTxnRuntime`` stays a separate class by measurement: sending
    every plan through ``TxnRuntime`` costs the all-local
    ``sim_tenant_calvin`` perfbench workload 40–46 % of its txn/s
    (DESIGN §14).
    """
    txn = plan.txn
    masters = plan.masters
    if (
        len(masters) == 1
        and not plan.migrations
        and not plan.writebacks
        and not plan.evictions
        and txn.validator is None
        and (
            txn.kind is TxnKind.READ_ONLY or txn.kind is TxnKind.READ_WRITE
        )
        and len(plan.reads_from) == 1
        and len(plan.reads_from.get(masters[0], ())) == len(txn.ordered_keys)
    ):
        return LocalTxnRuntime(
            cluster, plan, seq, t_sequenced, t_dispatched, on_finished
        )
    return TxnRuntime(
        cluster=cluster,
        plan=plan,
        seq=seq,
        t_sequenced=t_sequenced,
        t_dispatched=t_dispatched,
        on_finished=on_finished,
    )
