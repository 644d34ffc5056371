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
from repro.sim.stats import LATENCY_STAGES
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

# Hoisted enum members: ``LockMode.X`` is an attribute walk per lock.
_S = LockMode.S
_X = LockMode.X
#: Lock mode by release stage: only a key released at its serve is shared.
_MODE_AT = (_S, _X, _X, _X)


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
    """The lock requests one part of a transaction waits on.

    Until the last of them is granted the group holds the hops parked on
    it, as ``(fn, arg)`` pairs; opening it wakes them in registration
    order, each through ``Kernel.call_now``, and a hop parked on an open
    group takes its hop at once.  ``granted_at`` is ``None`` while the
    group is closed.
    """

    __slots__ = ("keys", "remaining", "granted_at", "parked")

    def __init__(self, keys: frozenset[Key]) -> None:
        self.keys = keys
        self.remaining = len(keys)
        self.granted_at: float | None = None
        self.parked: list | None = []


class _Serve(_LockGroup):
    """One serve location: the keys it reads and ships, and its lock
    group, whose ``keys`` are the locked ones (none for a pure
    replica/clone serve, which parks on nothing)."""

    __slots__ = ("loc", "serve_keys", "moves", "replica")

    def __init__(
        self, loc: NodeId, serve_keys: frozenset[Key], locked: frozenset[Key]
    ) -> None:
        _LockGroup.__init__(self, locked)
        self.loc = loc
        self.serve_keys = serve_keys
        #: Migrations leaving from here (their records are read here).
        self.moves: list | None = None
        #: Keys served from the replica side-store (replica or clone reads).
        self.replica: frozenset[Key] | None = None


class _Master:
    """One master's inputs and its data-ready state.

    ``awaiting`` lists the serve locations whose data has not arrived
    (the master's own serve included); a second delivery from a location
    is dropped.  The master is ready when nothing is awaited or, for a
    cloned plan, once every footprint key has a value (``missing``).
    Only the master's own chain parks on readiness, so ``parked`` is a
    flag rather than a list of hops.
    """

    __slots__ = (
        "node", "group", "awaiting", "inbox", "values", "missing", "parked"
    )

    def __init__(
        self, node: NodeId, group: _Serve | None, awaiting: list[NodeId]
    ) -> None:
        self.node = node
        self.group = group
        self.awaiting = awaiting
        self.inbox: list[Record] | tuple = ()
        #: Shipped read values, kept only for an OLLP validator.
        self.values: dict[Key, int] | None = None
        self.missing: set[Key] | None = None
        self.parked = False

    def ready(self) -> bool:
        missing = self.missing
        if missing is not None:
            return not missing
        return not self.awaiting


class TxnRuntime:
    """Drives one transaction's plan through the simulated cluster.

    Per-transaction state is built for the plan's shape: one
    :class:`_Serve` per serve location, one :class:`_Master` per master,
    a lock group for the evictions only if there are any, and one
    release-stage map from which the lock modes follow.
    """

    __slots__ = (
        "cluster", "plan", "txn", "seq", "t_sequenced", "t_dispatched",
        "on_finished", "committed", "aborted", "will_abort", "coordinator",
        "t_locks", "t_serve_done", "t_data", "t_commit",
        "_coord_apply_cpu", "_release_stage", "_lock_order_sorted",
        "_all_groups", "_sole_group", "_evict_group", "_serves", "_masters",
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
        txn = plan.txn
        self.txn = txn
        self.seq = seq
        self.t_sequenced = t_sequenced
        self.t_dispatched = t_dispatched
        self.on_finished = on_finished
        self.committed = False
        self.aborted = False
        self.will_abort = txn.aborts
        self.coordinator = plan.coordinator

        # -- classify keys: release stage (the lock mode follows) -----------
        # Written and migrated keys release at commit, the rest at their
        # serve.  Setting a present key keeps its place, so the map stays
        # in ``ordered_keys`` (repr-sorted) order.
        write_set = txn.write_set
        ordered_keys = txn.ordered_keys
        migrations = plan.migrations
        if len(write_set) == len(ordered_keys):
            release_stage = dict.fromkeys(ordered_keys, _STAGE_COMMIT)
        else:
            release_stage = dict.fromkeys(ordered_keys, _STAGE_READ)
            for key in write_set:
                release_stage[key] = _STAGE_COMMIT
        for move in migrations:
            release_stage[move.key] = _STAGE_COMMIT
        replica_reads = plan.replica_reads
        if replica_reads is not None:
            # Replica-served keys take no locks at all: the replication
            # router's batch-granular invalidation guarantees no write is
            # sequenced between a replica's install and this read, so the
            # side-store value is already the serializable one (the whole
            # point — replica reads skip the lock queue *and* the wait).
            for keys in replica_reads.values():
                for key in keys:
                    release_stage.pop(key, None)
        # Only a writeback/eviction key from *outside* the footprint can
        # break the repr order and force ``lock_requests`` to re-sort.
        in_order = True
        for move in plan.writebacks:
            if move.key not in release_stage:
                in_order = False
            release_stage[move.key] = _STAGE_WRITEBACK
        for move in plan.evictions:
            if move.key not in release_stage:
                in_order = False
            release_stage[move.key] = _STAGE_EVICT
        self._release_stage = release_stage
        self._lock_order_sorted = in_order

        # -- serve locations and their lock groups ----------------------------
        reads_from = plan.reads_from
        cloned_reads = plan.cloned_reads
        serves: list[_Serve] = []
        groups: list[_LockGroup] = []
        if replica_reads is None and cloned_reads is None:
            for loc, keys in reads_from.items():
                if keys:
                    serve = _Serve(loc, keys, keys)
                    serves.append(serve)
                    groups.append(serve)
        else:
            # Serve keys per location = plan reads plus any clones; the
            # lock group at a location covers only its *locked* keys.  A
            # location left without locked keys (pure replica/clone
            # serve) has no group and serves straight from dispatch.
            replica_at: dict[NodeId, frozenset[Key]] = (
                dict(replica_reads) if replica_reads else {}
            )
            serve_keys: dict[NodeId, frozenset[Key]] = dict(reads_from)
            if cloned_reads:
                for loc, extra in cloned_reads.items():
                    base = replica_at.get(loc)
                    replica_at[loc] = extra if base is None else (base | extra)
                    held = serve_keys.get(loc)
                    serve_keys[loc] = extra if held is None else (held | extra)
            for loc, keys in serve_keys.items():
                if not keys:
                    continue
                primary = reads_from.get(loc)
                lockfree_here = (
                    replica_reads.get(loc) if replica_reads else None
                )
                if not primary:
                    locked = frozenset()
                elif lockfree_here:
                    locked = primary - lockfree_here
                else:
                    locked = primary
                serve = _Serve(loc, keys, locked)
                serve.replica = replica_at.get(loc)
                serves.append(serve)
                if locked:
                    groups.append(serve)
        for move in migrations:
            for serve in serves:
                if serve.loc == move.src:
                    if serve.moves is None:
                        serve.moves = [move]
                    else:
                        serve.moves.append(move)
                    break
        self._serves = serves
        if plan.evictions:
            evict_group = _LockGroup(
                frozenset(m.key for m in plan.evictions)
            )
            groups.append(evict_group)
            self._evict_group: _LockGroup | None = evict_group
        else:
            self._evict_group = None
        self._all_groups = groups
        # Fast path: when one group covers *every* locked key, grants
        # skip the per-group membership scan entirely.  (Group keys are
        # always a subset of the locked keys, so equal sizes ⇒ coverage.)
        self._sole_group = (
            groups[0]
            if len(groups) == 1 and len(groups[0].keys) == len(release_stage)
            else None
        )

        # -- one part per master ------------------------------------------
        masters: list[_Master] = []
        for node in plan.masters:
            here = None
            for serve in serves:
                if serve.loc == node:
                    here = serve
                    break
            if cloned_reads is None:
                # Every location the plan reads from reports, the
                # master's own only if it reads anything there.
                awaiting = list(reads_from)
                if node in reads_from and not reads_from[node]:
                    awaiting.remove(node)
            else:
                awaiting = [serve.loc for serve in serves]
            masters.append(_Master(
                node, here if here is not None and here.keys else None,
                awaiting,
            ))
        if txn.validator is not None:
            for part in masters:
                part.values = {}
        if cloned_reads is not None:
            # Request cloning: readiness switches from "every expected
            # serve location reported" to "every footprint key has a
            # value" — the master proceeds on the first copy of each key
            # and late clones merely top up idempotent state.
            for part in masters:
                part.missing = set(txn.full_set)
        self._masters = masters

        # -- latency probe timestamps at the coordinator ---------------------
        self.t_locks: float | None = None
        self.t_serve_done: float | None = None
        self.t_data: float | None = None
        self.t_commit: float | None = None
        self._coord_apply_cpu = 0.0

    # ------------------------------------------------------------------
    # Lock plumbing (called by the cluster's scheduler)
    # ------------------------------------------------------------------

    def lock_requests(self) -> list[tuple[Key, LockMode]]:
        """Every (key, mode) this transaction must enqueue, deduplicated.

        A key released at its serve is read-locked; every other stage
        (commit, writeback, eviction) needs an exclusive lock.  Insertion
        order already follows the repr-sort for footprint keys; re-sort
        only when an out-of-footprint writeback/eviction key broke it
        (see ``__init__``).
        """
        stages = self._release_stage
        items = list(zip(stages, map(_MODE_AT.__getitem__, stages.values())))
        if not self._lock_order_sorted:
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
                self._open(sole)
            return
        for group in self._all_groups:
            if key in group.keys:
                group.remaining -= 1
                if group.remaining == 0:
                    self._open(group)

    def _open(self, group: _LockGroup) -> None:
        kernel = self.cluster.kernel
        group.granted_at = kernel.now
        parked = group.parked
        group.parked = None
        call_now = kernel.call_now
        for fn, arg in parked:
            call_now(fn, arg)

    def _park(self, group: _LockGroup, fn: Callable, arg) -> None:
        if group.granted_at is None:
            group.parked.append((fn, arg))
        else:
            self.cluster.kernel.call_now(fn, arg)

    # ------------------------------------------------------------------
    # Launch: one chain per serve location and per master
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the per-location serve parts and per-master parts.

        Each part is a callback chain of hops: its entry, the wake-up
        when its lock group opens (or, for a master, when its data is
        ready), and each worker completion.  Every hop goes through
        ``Kernel.call_now``, which runs it unqueued when it would be
        the next event anyway and queues it like ``call_soon``
        otherwise, so the order in which same-time events of different
        transactions interleave, the order the golden fingerprints pin,
        is the one a queue slot per hop gives.  Folding a hop away (a
        gate that has opened running its waiter inline) changes that
        order.
        """
        call_now = self.cluster.kernel.call_now
        for serve in self._serves:
            call_now(self._serve_entry, serve)
        for part in self._masters:
            call_now(self._master_entry, part)

    # ------------------------------------------------------------------
    # Phase: serve local reads at one location
    # ------------------------------------------------------------------

    def _serve_entry(self, serve: _Serve) -> None:
        if serve.keys:
            self._park(serve, self._serve_locked, serve)
        else:
            # Pure replica/clone serve location: nothing to lock, serve
            # immediately (mirrors the lock-free master-entry path).
            self._serve_locked(serve)

    def _serve_locked(self, serve: _Serve) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        if serve.loc == self.coordinator and self.t_locks is None:
            self.t_locks = (
                serve.granted_at if serve.keys else self.t_dispatched
            )
        cpu = cluster.config.costs.local_access_us * len(serve.serve_keys)
        cluster.nodes[serve.loc].workers.submit(
            cpu,
            partial(kernel.call_now, self._serve_executed, serve, kernel.now),
        )

    def _serve_executed(self, serve: _Serve, t_serve_start: float) -> None:
        cluster = self.cluster
        txn = self.txn
        loc = serve.loc
        keys = serve.serve_keys
        tracer = cluster.tracer
        if tracer is not None:
            tracer.serve(txn.txn_id, loc, t_serve_start, len(keys))
        if loc == self.coordinator:
            self.t_serve_done = cluster.kernel.now

        node = cluster.nodes[loc]
        store = node.store
        moves = serve.moves
        if moves is not None:
            # Physically detach records that migrate away from here.  A
            # migration's record is read where it leaves from, so the
            # other served keys only need a look-up if some stay.
            values: dict[Key, int] = {}
            records: list[Record] | tuple = []
            evict = store.evict
            for move in moves:
                record = evict(move.key)
                values[move.key] = record.value
                records.append(record)
            node.records_migrated_out += len(moves)
            if len(moves) < len(keys):
                migrating_keys = {move.key for move in moves}
                read = store.read_value
                for key in keys:
                    if key not in migrating_keys:
                        values[key] = read(key)
        else:
            replica_here = serve.replica
            installs = self.plan.replica_installs
            if replica_here is None and installs is None:
                read = store.read_value
                values = {key: read(key) for key in keys}
                records = ()
            else:
                # Replica-served keys come from the node's side-store;
                # install keys ship *copies* (the primary keeps its
                # record — contrast the migration detach above).
                read_value = store.read_value
                replicas = node.replicas
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

        own = None
        for part in self._masters:
            master = part.node
            if master == loc:
                own = part
                continue
            payload = CONTROL_BYTES + txn.profile.record_bytes * len(keys)
            cluster.network.send_reliable(
                loc,
                master,
                payload,
                partial(
                    self._note_data, part, loc,
                    records if master == self.coordinator else (), values,
                ),
                RETRY_POLICY,
                describe=f"remote read txn {txn.txn_id}",
            )
            cluster.metrics.remote_reads += len(keys)
            if tracer is not None:
                tracer.remote_read(txn.txn_id, loc, master, len(keys), payload)

        # The master's own serve completion also feeds its data-ready gate.
        if own is not None:
            self._note_data(own, loc, records, values)

        # Only *locked* keys release here — replica/clone serves hold no
        # locks, and a clone of a primary-served key must not release the
        # lock its primary serve still owns.
        if serve.keys:
            self._release_stage_keys(serve.keys, _STAGE_READ)

    def _note_data(
        self,
        part: _Master,
        loc: NodeId,
        records: list[Record] | tuple,
        values: dict[Key, int],
    ) -> None:
        # Idempotent redelivery: the reliable channel already suppresses
        # duplicates, but a master must also tolerate a retransmitted
        # read message arriving through any path — installing the same
        # records twice would corrupt the store.
        awaiting = part.awaiting
        if loc not in awaiting:
            return
        awaiting.remove(loc)
        if records:
            part.inbox = [*part.inbox, *records]
        if part.values is not None:
            part.values.update(values)
        missing = part.missing
        if missing:
            missing.difference_update(values)
        if part.parked and part.ready():
            part.parked = False
            self.cluster.kernel.call_now(self._master_data, part)

    # ------------------------------------------------------------------
    # Phase: master execution (logic + writes + commit)
    # ------------------------------------------------------------------

    def _master_entry(self, part: _Master) -> None:
        group = part.group
        if group is not None:
            self._park(group, self._master_locked, part)
        else:
            self._master_locked(part)

    def _master_locked(self, part: _Master) -> None:
        if part.node == self.coordinator and self.t_locks is None:
            group = part.group
            self.t_locks = (
                group.granted_at if group is not None else self.t_dispatched
            )
        if part.ready():
            self.cluster.kernel.call_now(self._master_data, part)
        else:
            part.parked = True

    def _master_data(self, part: _Master) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        costs = cluster.config.costs
        master = part.node
        if master == self.coordinator:
            self.t_data = kernel.now

        txn = self.txn
        local_writes = self.plan.writes_at.get(master)
        num_writes = len(local_writes) if local_writes else 0
        logic_cpu = (
            costs.logic_us_per_record * txn.size * txn.profile.logic_factor
        )
        apply_cpu = (
            costs.local_access_us * num_writes
            + costs.migration_apply_us * len(part.inbox)
        )
        if txn.aborts:
            # The paper's undo pass, charged though nothing is written.
            apply_cpu += costs.local_access_us * num_writes

        cluster.nodes[master].workers.submit(
            logic_cpu + apply_cpu,
            partial(
                kernel.call_now, self._master_executed,
                part, logic_cpu, apply_cpu, kernel.now,
            ),
        )

    def _master_executed(
        self,
        part: _Master,
        logic_cpu: float,
        apply_cpu: float,
        t_exec_start: float,
    ) -> None:
        cluster = self.cluster
        txn = self.txn
        master = part.node
        incoming = part.inbox
        local_writes = self.plan.writes_at.get(master)
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
                cluster.metrics.replica_installs += len(incoming)
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
            if not txn.validator(self._make_value_reader(part)):
                self.will_abort = True

        if local_writes and not self.will_abort:
            _apply_writes(node.store, txn, local_writes)

        if master == self.coordinator:
            self._coord_apply_cpu = apply_cpu
            self._commit()

        release_keys = set(local_writes) if local_writes else set()
        if incoming:
            release_keys.update(r.key for r in incoming)
        owned_here = self.plan.reads_from.get(master)
        if owned_here:
            release_keys.update(owned_here)
        self._release_stage_keys(release_keys, _STAGE_COMMIT)

    # ------------------------------------------------------------------
    # Commit and post-commit work (coordinator only)
    # ------------------------------------------------------------------

    def _make_value_reader(self, part: _Master):
        """value_of(key) over the transaction's locked footprint at a
        master: local keys from the store, remote keys from the shipped
        read values.  Reading outside the footprint raises — OLLP
        validators may only depend on locked data, or determinism under
        replay would be lost."""
        store = self.cluster.nodes[part.node].store
        remote = part.values
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
            cluster.metrics.aborts += 1
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
        evict_group = self._evict_group
        if evict_group is None:
            cluster.runtime_settled(self)
        else:
            self._park(evict_group, self._launch_evictions, evict_group)
        self.on_finished(self)

    def abandon(self) -> None:
        """Drop the hops a closed cluster will never wake: they lead back
        here and to the master parts (see ``Cluster.close``)."""
        for group in self._all_groups:
            group.parked = None
        self._serves = self._masters = self._all_groups = []
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

    def _launch_evictions(self, _group: _LockGroup) -> None:
        """Once the eviction keys are locked, read each route's records
        at the source and ship them."""
        cluster = self.cluster
        cluster.runtime_settled(self)
        by_route: dict[tuple[NodeId, NodeId], list] = {}
        for move in self.plan.evictions:
            by_route.setdefault((move.src, move.dst), []).append(move)
        access_us = cluster.config.costs.local_access_us
        for (src, dst), moves in sorted(by_route.items()):
            cluster.nodes[src].workers.submit(
                access_us * len(moves),
                partial(self._ship, src, dst, moves, _STAGE_EVICT, "eviction"),
            )

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
                frozenset(r.key for r in records), stage
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
            cluster.metrics.writebacks += len(records)
        else:
            cluster.metrics.evictions += len(records)
        tracer = cluster.tracer
        if tracer is not None:
            tracer.data_move(f"{label}_send", txn_id, src, dst, len(records))

    # ------------------------------------------------------------------
    # Lock release
    # ------------------------------------------------------------------

    def _release_stage_keys(
        self, keys: frozenset[Key] | set[Key], stage: int
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

    def stage_times(self) -> tuple[float, float, float, float, float]:
        """Additive per-stage latency at the coordinator, in microseconds,
        in :data:`~repro.sim.stats.LATENCY_STAGES` order; every stage is
        clamped at zero."""
        t0 = self.t_sequenced
        t1 = self.t_dispatched
        t2 = self.t_locks if self.t_locks is not None else t1
        t3 = self.t_serve_done if self.t_serve_done is not None else t2
        t4 = self.t_data if self.t_data is not None else t3
        t6 = self.t_commit if self.t_commit is not None else t4
        exec_span = max(0.0, t6 - t4)
        apply_cpu = self._coord_apply_cpu
        return (
            max(0.0, t1 - t0),
            max(0.0, t2 - t1),
            max(0.0, t3 - t2) + min(apply_cpu, exec_span),
            max(0.0, t4 - t3),
            max(0.0, exec_span - apply_cpu),
        )

    def latency_stages(self) -> dict[str, float]:
        """:meth:`stage_times` keyed by stage name (the tracer's form)."""
        return dict(zip(LATENCY_STAGES, self.stage_times()))

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
    routing strategy once placement converges.  The chain takes
    :class:`TxnRuntime`'s hops for the same plan, in the same order: an
    entry hop, a hop from the last grant to the serve burst, and hops
    from each burst's completion (the serve completion hops on to the
    master burst).  The generic master part's own entry and lock hops
    are left out: they only park, so no other event sees them.  Every
    hop goes through ``Kernel.call_now``, which runs it unqueued when it
    would be the next event anyway, so the event order, and with it
    every golden and fingerprint, is the generic chain's.  An all-local
    transaction thus costs its two worker timers plus only the hops that
    another event at the same instant really follows.
    """

    local_fast = True

    __slots__ = (
        "cluster", "plan", "txn", "seq", "t_sequenced", "t_dispatched",
        "on_finished", "committed", "aborted", "will_abort",
        "coordinator", "_keys", "_replica",
        "t_locks", "t_serve_done", "t_data", "t_commit",
        "_coord_apply_cpu", "_ungranted",
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
        # One count per lock, plus one that ``start``'s entry hop gives
        # up: grants made while the scheduler enqueues can never be the
        # last one.
        self._ungranted = len(txn.ordered_keys) + 1 - (
            len(replica) if replica else 0
        )
        self.t_locks: float | None = None
        self.t_serve_done: float | None = None
        self.t_data: float | None = None
        self.t_commit: float | None = None
        self._coord_apply_cpu = 0.0

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
        whole footprint, only the count matters.  The last unit (a grant
        or the entry hop's) hops to the serve burst."""
        self._ungranted -= 1
        if self._ungranted == 0:
            self.cluster.kernel.call_now(self._serve)

    # -- the chain ------------------------------------------------------

    def start(self) -> None:
        """Take the entry hop; it gives up ``start``'s grant unit."""
        self.cluster.kernel.call_now(self.on_lock_granted)

    def _serve(self) -> None:
        cluster = self.cluster
        kernel = cluster.kernel
        self.t_locks = kernel.now
        cpu = cluster.config.costs.local_access_us * len(self._keys)
        cluster.nodes[self.coordinator].workers.submit(
            cpu, partial(kernel.call_now, self._serve_executed, kernel.now)
        )

    def _serve_executed(self, t_serve_start: float) -> None:
        cluster = self.cluster
        master = self.coordinator
        keys = self._keys
        tracer = cluster.tracer
        if tracer is not None:
            tracer.serve(self.txn.txn_id, master, t_serve_start, len(keys))
        self.t_serve_done = cluster.kernel.now
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
        # The master's own serve is its only input: its data is ready.
        cluster.kernel.call_now(self._master_data)
        # Release read-stage keys, in the same repr-sorted order the
        # generic runtime uses (``ordered_keys`` is already sorted).
        # Replica-served keys were never locked, so there is nothing to
        # release for them.
        txn = self.txn
        ws = txn.write_set
        release = cluster.lock_manager.release
        seq = self.seq
        if replica:
            if ws:
                for key in txn.ordered_keys:
                    if key not in ws and key not in replica:
                        release(seq, key)
            else:
                for key in txn.ordered_keys:
                    if key not in replica:
                        release(seq, key)
        elif ws:
            for key in txn.ordered_keys:
                if key not in ws:
                    release(seq, key)
        else:
            for key in txn.ordered_keys:
                release(seq, key)

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
                kernel.call_now, self._master_executed,
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
            cluster.metrics.aborts += 1
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
    stage_times = TxnRuntime.stage_times
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
    ``sim_tenant_calvin`` perfbench workload about 28 % of its txn/s,
    even with both runtimes' hops unqueued (DESIGN §14).  Either runtime
    gives an eligible plan the same event order: both take the same
    hops, through ``Kernel.call_now``.
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
