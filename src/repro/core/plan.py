"""Routing plan types — the contract between routers and the engine.

A router turns a totally ordered batch into a :class:`RoutingPlan`: the
(possibly reordered) transaction sequence plus one :class:`TxnPlan` per
transaction describing exactly which node does what:

* ``masters`` — the nodes that execute transaction logic and apply
  writes.  Single-master strategies (Hermes, LEAP, G-Store+, T-Part) use
  one; Calvin's multi-master scheme lists every write-owning node.
* ``reads_from`` — for each node, the keys it reads from local storage
  and ships to the masters.  Keys located at a master are read there.
* ``writes_at`` — for each node, the keys it writes locally.
* ``migrations`` — ownership transfers that ride this transaction
  (data fusion): the record physically moves with the remote read and
  *stays* at the destination.
* ``writebacks`` — post-commit copies shipped back to a key's home
  (G-Store disbanding a group, T-Part returning records at batch end).
* ``evictions`` — fusion-table evictions attached to this transaction
  (Section 4.1): records pushed back to their static home after commit
  without delaying the client.

The plan is *positional*: ``reads_from``/``writes_at`` name the node a
key is located at **at this transaction's position in the planned
sequence**, as computed by the router against its deterministic ownership
view.  The engine's lock manager guarantees physical reality matches the
plan, and the executor asserts it.

Three optional fields extend the contract for the replication layer
(:mod:`repro.replication`); all default to ``None`` so plan allocation
for the dominant non-replicated case stays exactly as cheap as before:

* ``replica_reads`` — per serve location, the subset of its
  ``reads_from`` keys served from the node's *replica side-store*
  instead of its primary store.  Replica-served keys take **no locks**:
  the replication router's invalidation rule guarantees no write is
  sequenced between a replica's install and any read routed to it, so
  the side-store value already equals the serializable value at this
  transaction's position.
* ``cloned_reads`` — per node, *extra* lock-free serve locations for
  keys that some other node already serves (request cloning,
  arXiv 2002.04416).  The master uses whichever copy of each key
  arrives first; clones are excluded from the one-location-per-key
  validation and from :meth:`TxnPlan.execution_nodes` because the
  transaction never waits on them.
* ``replica_installs`` — keys this MIGRATION transaction *copies* into
  the destination's replica side-store.  Unlike ``migrations``, the
  source keeps its record: the serve ships a copy and the primary
  placement (and hence every state fingerprint) is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import RoutingError
from repro.common.types import Key, NodeId, Transaction


@dataclass(frozen=True, slots=True)
class Migration:
    """One record changing owner: ``key`` moves from ``src`` to ``dst``."""

    key: Key
    src: NodeId
    dst: NodeId

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise RoutingError(f"migration of {self.key!r} to its own node")


@dataclass(slots=True)
class TxnPlan:
    """Execution recipe for a single transaction."""

    txn: Transaction
    masters: tuple[NodeId, ...]
    reads_from: dict[NodeId, frozenset[Key]] = field(default_factory=dict)
    writes_at: dict[NodeId, frozenset[Key]] = field(default_factory=dict)
    migrations: tuple[Migration, ...] = ()
    writebacks: tuple[Migration, ...] = ()
    evictions: tuple[Migration, ...] = ()
    #: ``None`` (not ``{}``) when replication is off: the executor's hot
    #: paths branch on one ``is None`` check and plan construction never
    #: allocates empty containers for the dominant case.
    replica_reads: dict[NodeId, frozenset[Key]] | None = None
    cloned_reads: dict[NodeId, frozenset[Key]] | None = None
    replica_installs: frozenset[Key] | None = None

    @property
    def coordinator(self) -> NodeId:
        """The master used for latency accounting and commit counting."""
        return self.masters[0]

    def remote_read_count(self) -> int:
        """Records shipped to masters from elsewhere (the r(x;T) of Eq. 1)."""
        return sum(
            len(keys)
            for node, keys in self.reads_from.items()
            if node not in self.masters
        )

    def execution_nodes(self) -> set[NodeId]:
        """Nodes involved while the transaction executes: running logic
        or serving reads/writes (migration sources appear via
        ``reads_from``).  Excludes post-commit background movement
        (writebacks, evictions) — those never stall the transaction."""
        nodes: set[NodeId] = set(self.masters)
        nodes.update(self.reads_from)
        nodes.update(self.writes_at)
        return nodes

    def validate(self) -> None:
        """Check internal consistency; raises :class:`RoutingError`.

        Routers run this in their tests and the engine runs it in debug
        mode — an invalid plan means a router bug, and catching it here
        is vastly cheaper than debugging a corrupted simulation.
        """
        if not self.masters:
            raise RoutingError(f"txn {self.txn.txn_id}: no master")
        full = self.txn.full_set
        seen_reads: set[Key] = set()
        for node, keys in self.reads_from.items():
            overlap = seen_reads & set(keys)
            if overlap:
                raise RoutingError(
                    f"txn {self.txn.txn_id}: keys {overlap} read at two nodes"
                )
            seen_reads.update(keys)
            if not set(keys) <= full:
                raise RoutingError(
                    f"txn {self.txn.txn_id}: node {node} reads keys outside "
                    "the transaction's footprint"
                )
        if seen_reads != full:
            missing = full - seen_reads
            raise RoutingError(
                f"txn {self.txn.txn_id}: keys {missing} are never read"
            )
        written = set()
        for keys in self.writes_at.values():
            written.update(keys)
        if written != set(self.txn.write_set):
            raise RoutingError(
                f"txn {self.txn.txn_id}: writes_at covers {written}, "
                f"expected {set(self.txn.write_set)}"
            )
        for move in self.migrations:
            if move.key not in full:
                raise RoutingError(
                    f"txn {self.txn.txn_id}: migrates {move.key!r} which it "
                    "does not access"
                )
        if self.replica_reads is not None:
            write_set = set(self.txn.write_set)
            for node, keys in self.replica_reads.items():
                if not set(keys) <= set(self.reads_from.get(node, frozenset())):
                    raise RoutingError(
                        f"txn {self.txn.txn_id}: node {node} replica-reads "
                        "keys it is not a serve location for"
                    )
                if set(keys) & write_set:
                    raise RoutingError(
                        f"txn {self.txn.txn_id}: replica reads overlap the "
                        "write set"
                    )
        if self.cloned_reads is not None:
            write_set = set(self.txn.write_set)
            for node, keys in self.cloned_reads.items():
                if not set(keys) <= full:
                    raise RoutingError(
                        f"txn {self.txn.txn_id}: node {node} clones keys "
                        "outside the transaction's footprint"
                    )
                if set(keys) & write_set:
                    raise RoutingError(
                        f"txn {self.txn.txn_id}: cloned reads overlap the "
                        "write set"
                    )
        if self.replica_installs is not None:
            if not set(self.replica_installs) <= full:
                raise RoutingError(
                    f"txn {self.txn.txn_id}: replica-installs keys outside "
                    "the transaction's footprint"
                )


@dataclass(slots=True)
class RoutingPlan:
    """A routed batch: plans in execution order (B′ of the paper)."""

    epoch: int
    plans: list[TxnPlan] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def total_remote_reads(self) -> int:
        """The objective value of Eq. (1) for this plan."""
        return sum(plan.remote_read_count() for plan in self.plans)

    def loads(self, num_nodes: int) -> list[int]:
        """Transactions routed to each node (the l(P) of Eq. 1)."""
        loads = [0] * num_nodes
        for plan in self.plans:
            for master in plan.masters:
                loads[master] += 1
        return loads

    def validate(self, batch_txn_ids: list[int]) -> None:
        """Check the plan is a permutation of the input batch."""
        planned = sorted(plan.txn.txn_id for plan in self.plans)
        if planned != sorted(batch_txn_ids):
            raise RoutingError(
                "routing plan is not a permutation of the input batch"
            )
        for plan in self.plans:
            plan.validate()
