"""Router abstraction and shared plan-building helpers.

Every strategy — Hermes and all six baselines — implements
:class:`Router`.  A router is a **deterministic** function of the totally
ordered input: the paper's correctness argument (Section 3.1) rests on
every scheduler replica computing the identical plan from the identical
batch, so routers must not consult wall clocks, unseeded randomness, or
iteration orders that differ between runs.

:class:`OwnershipView` answers "where is this record *right now*" by
layering a live overlay (the fusion table, or a baseline's migration
state) over the static partitioner.  :class:`ClusterView` bundles the
ownership view with the active topology.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Protocol, Sequence

from repro.common.errors import RoutingError
from repro.common.types import Batch, Key, NodeId, Transaction, TxnKind
from repro.core.plan import Migration, RoutingPlan, TxnPlan
from repro.storage.partitioning import Partitioner


class KeyOverlay(Protocol):
    """Anything that can answer/record live ownership for hot keys."""

    def get(self, key: Key) -> NodeId | None:
        """Live owner of ``key`` or ``None`` when not overridden."""
        ...  # pragma: no cover - protocol

    def put(self, key: Key, node: NodeId) -> list[tuple[Key, NodeId]]:
        """Record a new owner; returns (key, home) pairs evicted."""
        ...  # pragma: no cover - protocol

    def remove(self, key: Key) -> None:
        """Drop a key from the overlay (it reverts to its static home)."""
        ...  # pragma: no cover - protocol


class DictOverlay:
    """Unbounded overlay used by LEAP and by tests.

    LEAP migrates records permanently and never evicts, which is exactly
    a plain dict.  (Its unboundedness is one of the problems the fusion
    table's capacity bound fixes.)
    """

    #: Lookups have no side effects, so cached owner tuples stay valid
    #: until a mutation bumps the ownership version (contrast the fusion
    #: table, whose ``get`` refreshes LRU recency).
    pure_reads = True

    def __init__(self) -> None:
        self._map: dict[Key, NodeId] = {}

    def get(self, key: Key) -> NodeId | None:
        return self._map.get(key)

    def get_bulk(self, keys: Sequence[Key]) -> list[NodeId | None]:
        """One lookup per key, in order (batch-routing fast path)."""
        lookup = self._map.get
        return [lookup(key) for key in keys]

    def put(self, key: Key, node: NodeId) -> list[tuple[Key, NodeId]]:
        self._map[key] = node
        return []

    def remove(self, key: Key) -> None:
        self._map.pop(key, None)

    def __len__(self) -> int:
        return len(self._map)

    def snapshot(self) -> dict[Key, NodeId]:
        """A copy of the current entries (audits and checkpoints).

        Mirrors :meth:`repro.core.fusion_table.FusionTable.snapshot` so
        the placement auditor can read any overlay without mutating its
        recency or hit/miss counters the way ``get`` would.
        """
        return dict(self._map)


class OwnershipView:
    """Live record placement: overlay over a static partitioner.

    Static-home lookups are memoized per key: a range lookup is a bisect
    and a TPC-C home is a derive-then-place chain, but the answer only
    changes when the partitioner itself is re-partitioned — which bumps
    its ``version`` counter and invalidates the cache wholesale.
    """

    #: Default cap on memoized static homes.  The memo is a pure
    #: speed-up — entries past the cap are computed but not stored — so
    #: the cap changes memory, never results.  At the preset scales the
    #: whole keyspace fits; at 2M-20M keys an unbounded memo would cost
    #: more resident memory than the array-backed stores it routes for.
    HOME_MEMO_LIMIT = 1 << 18

    def __init__(
        self,
        static: Partitioner,
        overlay: KeyOverlay | None = None,
        home_memo_limit: int | None = None,
    ):
        self.static = static
        self.overlay = overlay if overlay is not None else DictOverlay()
        self._home_cache: dict[Key, NodeId] = {}
        self._home_limit = (
            home_memo_limit if home_memo_limit is not None
            else self.HOME_MEMO_LIMIT
        )
        self._home_version = getattr(static, "version", 0)
        #: ownership changes registered over the run (observability).
        self.moves_recorded = 0
        #: bumped on every overlay mutation routed through this view;
        #: together with the static partitioner's version it forms the
        #: :meth:`version_token` that footprint caches key on.
        self._mutations = 0
        #: Replica sets layered over primary placement, attached by a
        #: :class:`repro.replication.router.ReplicationRouter` (a
        #: :class:`repro.replication.directory.ReplicaDirectory`).
        #: Deliberately *outside* :meth:`version_token`: replicas never
        #: change which node owns a key, so footprints cached by the
        #: PR 7 footprint cache stay valid across installs, retires,
        #: and invalidations.
        self.replicas = None

    def version_token(self) -> tuple[int, int]:
        """Opaque token identifying the current placement state.

        Changes whenever record placement can have changed: any overlay
        mutation registered through this view (:meth:`record_move`,
        :meth:`forget_overlay` — including fusion-table evictions, which
        happen inside ``record_move``'s ``put``) or a static
        re-partition (the partitioner's own ``version`` counter, bumped
        by ``reassign``).  Owner tuples cached under an older token must
        be discarded.
        """
        return (self._mutations, getattr(self.static, "version", 0))

    def _homes(self) -> dict[Key, NodeId]:
        """The home cache, invalidated if the partitioner changed."""
        version = getattr(self.static, "version", 0)
        if version != self._home_version:
            self._home_cache.clear()
            self._home_version = version
        return self._home_cache

    def owner(self, key: Key) -> NodeId:
        """The node that currently holds ``key``."""
        live = self.overlay.get(key)
        if live is not None:
            return live
        return self.home(key)

    def owners_bulk(self, keys: Sequence[Key]) -> list[NodeId]:
        """Current owner of every key, in order, in one overlay pass.

        Exactly equivalent to ``[self.owner(k) for k in keys]`` —
        including the overlay's per-hit LRU refresh order, which routing
        determinism depends on — but pays one call into the overlay for
        the whole batch and serves static homes from the memo.
        """
        get_bulk = getattr(self.overlay, "get_bulk", None)
        if get_bulk is not None:
            lives = get_bulk(keys)
        else:
            get = self.overlay.get
            lives = [get(key) for key in keys]
        cache = self._homes()
        lookup = cache.get
        static_home = self.static.home
        limit = self._home_limit
        out: list[NodeId] = []
        append = out.append
        for key, live in zip(keys, lives):
            if live is not None:
                append(live)
                continue
            node = lookup(key)
            if node is None:
                node = static_home(key)
                if len(cache) < limit:
                    cache[key] = node
            append(node)
        return out

    def home(self, key: Key) -> NodeId:
        """The static home of ``key`` (where evictions send it back)."""
        cache = self._homes()
        node = cache.get(key)
        if node is None:
            node = self.static.home(key)
            if len(cache) < self._home_limit:
                cache[key] = node
        return node

    def record_move(self, key: Key, dst: NodeId) -> list[tuple[Key, NodeId]]:
        """Register that ``key`` now lives at ``dst``.

        If ``dst`` is the key's static home the overlay entry is dropped
        instead of stored — keeping the overlay to genuinely displaced
        records only.  Returns any evictions the overlay performed.
        """
        self.moves_recorded += 1
        self._mutations += 1
        if self.home(key) == dst:
            self.overlay.remove(key)
            return []
        return self.overlay.put(key, dst)

    def forget_overlay(self, key: Key) -> None:
        """Drop ``key``'s overlay entry (it reverts to its static home).

        The version-bumping spelling of ``overlay.remove`` — callers
        that clean up overlay entries directly must use this so cached
        footprints are invalidated.
        """
        self._mutations += 1
        self.overlay.remove(key)


class FootprintCache:
    """Per-transaction owner tuples, invalidated by placement version.

    A transaction's *routing footprint* is the tuple of current owners
    of its ``ordered_keys``.  Routers resolve it several times per
    transaction (majority vote, then plan construction) and planners may
    resolve it once more; this cache computes it once per
    :meth:`OwnershipView.version_token` and replays the tuple until a
    migration, overlay cleanup, or static re-partition bumps the token.

    The cache only engages over pure-read overlays
    (``overlay.pure_reads``): the fusion table's lookups refresh LRU
    recency, so serving owners from a cache would change eviction order
    — there the cache degrades to a plain ``owners_bulk`` pass-through.

    Intended lifetime is one ``route_batch`` call: transaction ids are
    unique, so a longer-lived cache over a mutation-free view would only
    accumulate dead entries.
    """

    __slots__ = ("_view", "_active", "_token", "_map")

    def __init__(self, view: OwnershipView) -> None:
        self._view = view
        self._active = getattr(view.overlay, "pure_reads", False)
        self._token = view.version_token()
        self._map: dict[int, tuple[NodeId, ...]] = {}

    def owners(self, txn: Transaction) -> tuple[NodeId, ...]:
        """Current owner of each of ``txn.ordered_keys``, in order."""
        view = self._view
        if not self._active:
            return tuple(view.owners_bulk(txn.ordered_keys))
        token = view.version_token()
        if token != self._token:
            self._map.clear()
            self._token = token
        footprint = self._map.get(txn.txn_id)
        if footprint is None:
            footprint = self._map[txn.txn_id] = tuple(
                view.owners_bulk(txn.ordered_keys)
            )
        return footprint


class ClusterView:
    """What a router is allowed to see when planning a batch."""

    def __init__(
        self,
        active_nodes: Iterable[NodeId],
        ownership: OwnershipView,
    ) -> None:
        self.active_nodes = sorted(active_nodes)
        if not self.active_nodes:
            raise RoutingError("cluster view needs at least one active node")
        self.ownership = ownership

    @property
    def num_active(self) -> int:
        return len(self.active_nodes)

    def set_active(self, nodes: Iterable[NodeId]) -> None:
        """Apply a topology change (Section 3.3's special transaction)."""
        updated = sorted(nodes)
        if not updated:
            raise RoutingError("cannot deactivate every node")
        self.active_nodes = updated


class Router(ABC):
    """A deterministic batch-routing strategy."""

    #: Human-readable name used in benchmark tables.
    name: str = "router"

    @abstractmethod
    def route_batch(self, batch: Batch, view: ClusterView) -> RoutingPlan:
        """Turn a totally ordered batch into an executable plan.

        Implementations may reorder transactions within the batch but
        must return exactly the same transaction set, and must mutate
        ``view.ownership`` to reflect any migrations they plan — the next
        batch is planned against the updated view.
        """

    def routing_cost_us(self, batch_size: int, costs) -> float:
        """Scheduler CPU charged for planning a batch of this size.

        Default: linear in the batch size.  The prescient router
        overrides this with its quadratic term (Section 3.2.4).
        """
        return costs.route_fixed_us + costs.route_per_txn_us * batch_size


def count_by_owner(
    txn: Transaction,
    view: ClusterView,
    keys: Iterable[Key] | None = None,
    owners: Sequence[NodeId] | None = None,
) -> dict[NodeId, int]:
    """How many of the transaction's keys each node currently owns.

    ``owners`` — a precomputed footprint aligned with ``keys`` (or with
    ``txn.ordered_keys`` when ``keys`` is omitted) — skips the ownership
    pass entirely.
    """
    if owners is None:
        key_seq = tuple(keys) if keys is not None else txn.ordered_keys
        owners = view.ownership.owners_bulk(key_seq)
    counts: dict[NodeId, int] = {}
    for owner in owners:
        counts[owner] = counts.get(owner, 0) + 1
    return counts


def majority_owner(
    txn: Transaction,
    view: ClusterView,
    counts: dict[NodeId, int] | None = None,
) -> NodeId:
    """The active node owning the most of the transaction's records.

    Ties break by hashing the transaction id over the tied candidates —
    deterministic (the id is part of the ordered input) but unbiased: a
    lowest-id tiebreak would systematically funnel every migrating
    strategy's records onto node 0.  If no owner is active (all data on
    draining nodes), falls back over all active nodes the same way.

    Callers that already resolved the transaction's owners may pass the
    owner ``counts`` to skip the second ownership pass.
    """
    if counts is None:
        counts = count_by_owner(txn, view)
    active = set(view.active_nodes)
    best_count = -1
    tied: list[NodeId] = []
    for node in sorted(counts):
        if node not in active:
            continue
        if counts[node] > best_count:
            best_count = counts[node]
            tied = [node]
        elif counts[node] == best_count:
            tied.append(node)
    if not tied:
        tied = list(view.active_nodes)
    return tied[txn.txn_id % len(tied)]


def build_single_master_plan(
    txn: Transaction,
    master: NodeId,
    view: ClusterView,
    *,
    migrate_writes: bool = False,
    migrate_reads: bool = False,
    writeback_remote: bool = False,
    update_view: bool = True,
    owners: Sequence[NodeId] | None = None,
) -> TxnPlan:
    """Construct a single-master :class:`TxnPlan` under a given policy.

    The policy flags span the strategy space:

    * Hermes: ``migrate_writes=True`` (write-set-only fusion);
    * LEAP:   ``migrate_writes=True, migrate_reads=True``;
    * G-Store+: all three migrate/writeback flags with
      ``update_view=False`` — records are pulled into the group, then
      pushed back to their homes after commit, so net ownership never
      changes;
    * plain single-master (no flags): remote reads are copies, writes to
      remote keys are shipped to their owners post-commit like Calvin's
      write propagation — used as a building block by T-Part, whose
      router fills in forward-pushing and batch-end writebacks itself.
    """
    # One bulk ownership pass covers every loop below: the view is only
    # mutated afterwards (``update_view``), so all lookups see the same
    # pre-transaction placement the per-key code did.  A caller that
    # already resolved the footprint (``owners``, aligned with
    # ``ordered_keys``) skips the pass.
    keys = txn.ordered_keys
    if owners is None:
        owners = view.ownership.owners_bulk(keys)
    owner_of = dict(zip(keys, owners))
    write_set = txn.write_set

    reads_from: dict[NodeId, set[Key]] = {}
    for key in keys:
        reads_from.setdefault(owner_of[key], set()).add(key)

    migrations: list[Migration] = []
    writebacks: list[Migration] = []
    writes_at: dict[NodeId, set[Key]] = {}

    for key in write_set:
        owner = owner_of[key]
        if owner == master:
            writes_at.setdefault(master, set()).add(key)
        elif migrate_writes:
            migrations.append(Migration(key, owner, master))
            writes_at.setdefault(master, set()).add(key)
        else:
            # Record stays home; the master ships the new value back and
            # the owner applies it (Calvin-style write propagation).
            writes_at.setdefault(owner, set()).add(key)

    if migrate_reads:
        for key in sorted(txn.read_set - write_set, key=repr):
            owner = owner_of[key]
            if owner != master:
                migrations.append(Migration(key, owner, master))

    if writeback_remote:
        for key in keys:
            owner = owner_of[key]
            if owner != master:
                writebacks.append(Migration(key, master, owner))

    plan = TxnPlan(
        txn=txn,
        masters=(master,),
        reads_from={n: frozenset(k) for n, k in reads_from.items()},
        writes_at={n: frozenset(k) for n, k in writes_at.items()},
        migrations=tuple(migrations),
        writebacks=tuple(writebacks),
    )
    if update_view:
        for move in migrations:
            view.ownership.record_move(move.key, move.dst)
    return plan


def build_multi_master_plan(
    txn: Transaction,
    view: ClusterView,
    owners: Sequence[NodeId] | None = None,
) -> TxnPlan:
    """Construct Calvin's multi-master plan.

    Every node owning a written record is a master: it collects the
    remote reads, runs the transaction logic, and writes the records it
    owns.  Read-only transactions execute at the majority read owner.
    No data moves permanently.  ``owners`` — a precomputed footprint
    aligned with ``txn.ordered_keys`` — skips the ownership pass.
    """
    keys = txn.ordered_keys
    if owners is None:
        owners = view.ownership.owners_bulk(keys)
    owner_of = dict(zip(keys, owners))
    write_set = txn.write_set

    writer_nodes = sorted({owner_of[key] for key in write_set})
    if not writer_nodes:
        counts: dict[NodeId, int] = {}
        for key in keys:
            owner = owner_of[key]
            counts[owner] = counts.get(owner, 0) + 1
        writer_nodes = [majority_owner(txn, view, counts)]

    reads_from: dict[NodeId, set[Key]] = {}
    for key in keys:
        reads_from.setdefault(owner_of[key], set()).add(key)

    writes_at: dict[NodeId, set[Key]] = {}
    for key in write_set:
        writes_at.setdefault(owner_of[key], set()).add(key)

    return TxnPlan(
        txn=txn,
        masters=tuple(writer_nodes),
        reads_from={n: frozenset(k) for n, k in reads_from.items()},
        writes_at={n: frozenset(k) for n, k in writes_at.items()},
    )


def build_topology_plan(txn: Transaction, view: ClusterView) -> TxnPlan:
    """Plan for a TOPOLOGY marker transaction: a no-data no-op.

    The routing layer applies the topology change when it *sees* the
    marker (totally ordered, hence consistent across replicas); the
    engine merely commits it.
    """
    if txn.kind is not TxnKind.TOPOLOGY:
        raise RoutingError("build_topology_plan requires a TOPOLOGY txn")
    return TxnPlan(txn=txn, masters=(view.active_nodes[0],))


def build_chunk_migration_plan(txn: Transaction, view: ClusterView) -> TxnPlan:
    """Plan a cold-migration chunk transaction (Squall-style).

    Moves every chunk key whose *live* owner is still the chunk's source
    — keys the fusion table has displaced elsewhere are skipped, which is
    Hermes' hot/cold isolation (Section 3.3); under fusion-less baselines
    nothing is displaced, so the chunk moves (and locks) everything.

    If the chunk names a ``range_reassign`` and the static partitioner
    supports it, the keys' static home is rewritten to the destination at
    plan time — deterministically, since planning follows the total order.
    """
    if txn.kind is not TxnKind.MIGRATION:
        raise RoutingError("build_chunk_migration_plan requires MIGRATION")
    chunk = txn.payload
    if chunk is None:
        raise RoutingError(f"migration txn {txn.txn_id} lacks a chunk payload")
    if getattr(chunk, "copy", False):
        raise RoutingError(
            f"migration txn {txn.txn_id} carries a copy chunk; replica "
            "installs are planned by build_replica_install_plan (a "
            "ReplicationRouter must intercept them before the inner router)"
        )

    chunk_keys = tuple(chunk.keys)
    owners = view.ownership.owners_bulk(chunk_keys)
    moved = [
        key
        for key, owner in zip(chunk_keys, owners)
        if owner == chunk.src
    ]
    moved_set = set(moved)
    migrations = tuple(Migration(key, chunk.src, chunk.dst) for key in moved)

    if chunk.range_reassign is not None and hasattr(
        view.ownership.static, "reassign"
    ):
        lo, hi = chunk.range_reassign
        view.ownership.static.reassign(lo, hi, chunk.dst)
        # The re-home turns overlay entries for chunk keys already fused
        # onto ``dst`` into redundant home entries; drop them so the
        # overlay keeps only genuinely displaced records.  (Moved keys
        # get the same cleanup through ``record_move`` below.)
        forget = view.ownership.forget_overlay
        for key, owner in zip(chunk_keys, owners):
            if owner == chunk.dst and key not in moved_set:
                forget(key)
    evictions: list[Migration] = []
    for key in moved:
        # After a static reassign the destination usually *is* the new
        # home, so record_move just clears any stale overlay entry.  When
        # the chunk targets a non-home node (hot drains), the bounded
        # fusion table may evict entries — those records must ship back
        # to their homes or the view would silently forget them.
        for evicted_key, evicted_owner in view.ownership.record_move(
            key, chunk.dst
        ):
            if evicted_key in moved_set:
                continue  # re-inserted later in this very chunk
            home = view.ownership.home(evicted_key)
            if evicted_owner != home:
                evictions.append(Migration(evicted_key, evicted_owner, home))

    effective = Transaction(
        txn_id=txn.txn_id,
        read_set=frozenset(moved),
        write_set=frozenset(),
        kind=TxnKind.MIGRATION,
        arrival_time=txn.arrival_time,
        profile=txn.profile,
        payload=chunk,
    )
    reads_from = {chunk.src: frozenset(moved)} if moved else {}
    return TxnPlan(
        txn=effective,
        masters=(chunk.dst,),
        reads_from=reads_from,
        migrations=migrations,
        evictions=tuple(evictions),
    )


def build_replica_install_plan(txn: Transaction, view: ClusterView) -> TxnPlan:
    """Plan a replica-install chunk (a MIGRATION txn with a copy chunk).

    The chunk's keys are read — under ordinary S locks, at whichever
    node *currently* owns each key — and shipped to ``chunk.dst`` as
    copies; the destination installs them into its replica side-store.
    Primary ownership, the ownership view, and every store fingerprint
    are untouched: no ``migrations``, no ``record_move``, no eviction.

    *Every* chunk key is copied, including keys ``dst`` currently owns
    (those serve locally): the replica directory tracks validity at
    range granularity, so a holder's side-store must cover the whole
    range — a partial copy would leave later replica reads of the
    uncovered keys with nothing to serve if primary ownership shifts.
    """
    if txn.kind is not TxnKind.MIGRATION:
        raise RoutingError("build_replica_install_plan requires MIGRATION")
    chunk = txn.payload
    if chunk is None or not getattr(chunk, "copy", False):
        raise RoutingError(
            f"migration txn {txn.txn_id} is not a replica-install chunk"
        )

    chunk_keys = tuple(chunk.keys)
    owners = view.ownership.owners_bulk(chunk_keys)
    reads_from: dict[NodeId, set[Key]] = {}
    for key, owner in zip(chunk_keys, owners):
        reads_from.setdefault(owner, set()).add(key)

    effective = Transaction(
        txn_id=txn.txn_id,
        read_set=frozenset(chunk_keys),
        write_set=frozenset(),
        kind=TxnKind.MIGRATION,
        arrival_time=txn.arrival_time,
        profile=txn.profile,
        payload=chunk,
    )
    return TxnPlan(
        txn=effective,
        masters=(chunk.dst,),
        reads_from={n: frozenset(k) for n, k in reads_from.items()},
        replica_installs=frozenset(chunk_keys),
    )


def split_system_txns(
    batch: Batch, view: ClusterView
) -> tuple[list[Transaction], list[TxnPlan], list[Transaction]]:
    """Separate a batch into (user txns, topology plans, migration txns).

    Applies TOPOLOGY changes to the view as they are encountered (they
    are totally ordered, so every replica applies them identically) and
    returns ready-made plans for them.  MIGRATION chunks are returned
    un-planned so the router can order them (typically after user work).
    """
    user_txns: list[Transaction] = []
    topology_plans: list[TxnPlan] = []
    migration_txns: list[Transaction] = []
    for txn in batch:
        if txn.kind is TxnKind.TOPOLOGY:
            view.set_active(tuple(txn.payload))
            topology_plans.append(build_topology_plan(txn, view))
        elif txn.kind is TxnKind.MIGRATION:
            migration_txns.append(txn)
        else:
            user_txns.append(txn)
    return user_txns, topology_plans, migration_txns
