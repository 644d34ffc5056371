"""Core value types: keys, transactions, batches.

A *key* identifies one logical record.  YCSB-style workloads use plain
integers; TPC-C uses tuples such as ``("stock", warehouse, item)``.  Any
hashable, orderable value works — the lock manager sorts keys to acquire
locks deterministically, and mixed-type keyspaces are compared by their
``repr`` as a tiebreaker.

A *transaction* is a request with a known read-set and write-set, exactly
as Calvin and Hermes assume (stored procedures, or OLLP reconnaissance has
already run).  Transactions are immutable; routers may *reorder* them
inside a batch but never mutate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Sequence

Key = Hashable
NodeId = int
TxnId = int


class TxnKind(enum.Enum):
    """The classes of work the engine distinguishes.

    ``READ_ONLY`` and ``READ_WRITE`` are ordinary user transactions.
    ``MIGRATION`` marks Squall-style chunk migrations of cold data, and
    ``TOPOLOGY`` marks the special totally ordered transaction Hermes
    issues to announce a node joining or leaving (Section 3.3).
    """

    READ_ONLY = "read_only"
    READ_WRITE = "read_write"
    MIGRATION = "migration"
    TOPOLOGY = "topology"


@dataclass(frozen=True, slots=True)
class ExecutionProfile:
    """Cost hints the simulator uses to charge CPU for a transaction.

    ``logic_factor`` scales the per-record transaction-logic cost; TPC-C
    New-Order carries more logic per record than a YCSB point read, for
    example.  ``record_bytes`` sizes network transfers of record payloads.
    """

    logic_factor: float = 1.0
    record_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.logic_factor < 0:
            raise ValueError("logic_factor must be non-negative")
        if self.record_bytes <= 0:
            raise ValueError("record_bytes must be positive")


DEFAULT_PROFILE = ExecutionProfile()


@dataclass(eq=False, slots=True)
class Transaction:
    """One totally ordered transaction request.

    The read-set *includes* every key the transaction touches (Calvin
    requires locks on all of them), while the write-set is the subset that
    is modified.  ``aborts`` marks a user-logic abort: the transaction
    still migrates data per its routing plan before rolling back
    (Section 4.2 of the paper).

    ``payload`` carries strategy data for system transactions: the new
    active-node set for ``TOPOLOGY`` markers, and the (src, dst) pair for
    ``MIGRATION`` chunks.  Equality is identity — two distinct requests
    are distinct transactions even with identical footprints.

    Immutable by contract: no layer assigns a field after construction
    (routers reorder transactions, never edit them).  The class is not
    ``frozen`` because a frozen dataclass pays one ``object.__setattr__``
    per field on every construction, and one is built per request.  The
    two derived views every engine layer reads per transaction —
    ``full_set`` and ``ordered_keys`` — are computed once, here, as plain
    fields.
    """

    txn_id: TxnId
    read_set: frozenset[Key]
    write_set: frozenset[Key]
    kind: TxnKind = TxnKind.READ_WRITE
    arrival_time: float = 0.0
    profile: ExecutionProfile = DEFAULT_PROFILE
    aborts: bool = False
    tenant: int | None = None
    payload: object = None
    validator: object = None
    """Optional OLLP footprint check: a callable ``validator(value_of)``
    evaluated by the executing master over the *locked* read-set values.
    Returning False deterministically aborts the transaction (its
    footprint prediction went stale), and the OLLP coordinator restarts
    it with a fresh reconnaissance (Section 2.1)."""
    full_set: frozenset[Key] = field(init=False, repr=False)
    """Every key the transaction locks (reads ∪ writes)."""
    ordered_keys: tuple[Key, ...] = field(init=False, repr=False)
    """``full_set`` in a deterministic, hash-salt-independent order.

    Iterating a ``frozenset`` of str-bearing keys (e.g. TPC-C's
    composite tuples) follows the per-process ``PYTHONHASHSEED`` salt,
    so any consumer whose *sequence* of operations feeds scheduling —
    routing loops, lock classification, reads-from grouping — must
    iterate this instead."""

    def __post_init__(self) -> None:
        reads = self.read_set
        writes = self.write_set
        if self.kind is TxnKind.READ_ONLY and writes:
            raise ValueError(
                f"transaction {self.txn_id} is READ_ONLY but has a write-set"
            )
        full = reads if writes is reads or not writes else reads | writes
        self.full_set = full
        self.ordered_keys = tuple(sorted(full, key=repr))

    @property
    def size(self) -> int:
        """Number of distinct records touched."""
        return len(self.full_set)

    def is_system(self) -> bool:
        """Whether this is a migration or topology-change transaction."""
        return self.kind in (TxnKind.MIGRATION, TxnKind.TOPOLOGY)

    @staticmethod
    def read_write(
        txn_id: TxnId,
        reads: Sequence[Key],
        writes: Sequence[Key],
        **kwargs: object,
    ) -> "Transaction":
        """Convenience constructor from plain sequences."""
        return Transaction(
            txn_id=txn_id,
            read_set=frozenset(reads),
            write_set=frozenset(writes),
            **kwargs,  # type: ignore[arg-type]
        )

    @staticmethod
    def read_only(
        txn_id: TxnId, reads: Sequence[Key], **kwargs: object
    ) -> "Transaction":
        """Convenience constructor for a read-only transaction."""
        return Transaction(
            txn_id=txn_id,
            read_set=frozenset(reads),
            write_set=frozenset(),
            kind=TxnKind.READ_ONLY,
            **kwargs,  # type: ignore[arg-type]
        )


@dataclass(slots=True)
class Batch:
    """A totally ordered batch of transactions produced by the sequencer.

    ``epoch`` is the sequencer round that produced the batch; batches are
    globally ordered by epoch and transactions within a batch by list
    position.  Routers receive whole batches (this is what gives Hermes
    its window into the near future).
    """

    epoch: int
    txns: list[Transaction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.txns)

    def __iter__(self):
        return iter(self.txns)

    def ids(self) -> list[TxnId]:
        """Transaction ids in batch order."""
        return [t.txn_id for t in self.txns]

    def clone(self) -> "Batch":
        """Copy of the batch with a fresh transaction list.

        Transactions themselves are immutable and shared; the list copy
        isolates receiver-side mutation — used when one sequenced batch
        is delivered to several replicas or re-delivered after a crash.
        """
        return Batch(epoch=self.epoch, txns=list(self.txns))
