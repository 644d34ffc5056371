"""OLLP: Optimistic Lock Location Prediction (Section 2.1).

Calvin — and therefore Hermes — requires a transaction's read/write-sets
*before* it starts.  When a stored procedure's footprint depends on data
(e.g. a secondary-index lookup picks which rows to update), Calvin
prepends a cheap, non-transactional **reconnaissance** read that predicts
the footprint, then submits the real transaction with the predicted sets.
At execution the transaction re-derives its footprint from the (now
locked) dependency records; if an intervening write changed the answer,
the transaction deterministically aborts and OLLP retries with a fresh
reconnaissance.

:class:`DependentTxnSpec` describes such a procedure: ``dependency_keys``
are always read (and locked), and ``compute(value_of)`` derives the rest
of the footprint from their values.  :class:`OLLP` performs the recon /
submit / validate / retry loop on top of any :class:`Cluster`, for any
routing strategy — footprint resolution is orthogonal to routing, which
is why the paper can assume read/write-sets are simply "available".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Key, Transaction
from repro.engine.cluster import Cluster

ValueReader = Callable[[Key], int]
Footprint = tuple[frozenset, frozenset]


@dataclass(frozen=True, slots=True)
class DependentTxnSpec:
    """A stored procedure whose footprint depends on database state.

    ``compute(value_of)`` must be a *pure* function of the dependency
    keys' values, returning ``(extra_reads, writes)``.  The transaction's
    full read-set is ``dependency_keys | extra_reads | writes``.
    """

    dependency_keys: frozenset
    compute: Callable[[ValueReader], Footprint]

    def __post_init__(self) -> None:
        if not self.dependency_keys:
            raise ConfigurationError(
                "a dependent transaction needs at least one dependency key"
            )

    def resolve(self, value_of: ValueReader) -> Footprint:
        """Full (read_set, write_set) under the given value reader."""
        extra_reads, writes = self.compute(value_of)
        reads = frozenset(self.dependency_keys) | frozenset(extra_reads) | frozenset(writes)
        return reads, frozenset(writes)


class OLLP:
    """The reconnaissance / validate / retry loop."""

    def __init__(self, cluster: Cluster, max_restarts: int = 10) -> None:
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        self.cluster = cluster
        self.max_restarts = max_restarts
        self.recon_reads = 0
        self.restarts = 0
        self.completed = 0

    # -- reconnaissance ----------------------------------------------------

    def _peek(self, key: Key) -> int:
        """Non-transactional read of a record's current value.

        Reconnaissance reads race with in-flight transactions by design —
        that is the "optimistic" part; a stale prediction is caught by the
        execution-time validation, never by the recon itself.
        """
        self.recon_reads += 1
        owner = self.cluster.ownership.owner(key)
        store = self.cluster.nodes[owner].store
        if key in store:
            return store.read_value(key)
        # The record is mid-migration: fall back to scanning (simulation
        # shortcut for "retry the recon read shortly after").
        for node in self.cluster.nodes:
            if key in node.store:
                return node.store.read_value(key)
        raise SimulationError(f"recon read of unknown key {key!r}")

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: DependentTxnSpec,
        on_commit: Callable | None = None,
        on_fail: Callable | None = None,
        _attempt: int = 0,
    ) -> Transaction:
        """Recon the footprint and submit; retries on stale predictions.

        A spec whose footprint keeps moving for ``max_restarts + 1``
        attempts is a legitimate, deterministic outcome of the workload —
        every replica exhausts at the same point in the total order.  It
        therefore must not raise: the exhaustion callback runs *inside*
        kernel dispatch (mid-commit of the final aborted attempt), and an
        exception there unwinds the event loop and corrupts engine state.
        Instead the cluster's ``metrics.ollp_exhausted`` counter
        increments, an ``ollp_exhausted`` trace instant is emitted, and
        ``on_fail(spec, runtime)`` — if given — is invoked with the final
        aborted runtime.
        """
        predicted = spec.resolve(self._peek)
        reads, writes = predicted

        def validator(value_of: ValueReader) -> bool:
            return spec.resolve(value_of) == predicted

        txn = Transaction(
            txn_id=self.cluster.next_txn_id(),
            read_set=reads,
            write_set=writes,
            arrival_time=self.cluster.kernel.now,
            validator=validator,
            payload=spec,
        )

        def finished(runtime) -> None:
            if runtime.aborted:
                if _attempt >= self.max_restarts:
                    self.cluster.metrics.ollp_exhausted += 1
                    tracer = self.cluster.tracer
                    if tracer is not None:
                        tracer.instant(
                            "exec", "ollp_exhausted", txn=txn.txn_id,
                            attempts=_attempt + 1,
                        )
                    if on_fail is not None:
                        on_fail(spec, runtime)
                    return
                self.restarts += 1
                self.submit(spec, on_commit=on_commit, on_fail=on_fail,
                            _attempt=_attempt + 1)
            else:
                self.completed += 1
                if on_commit is not None:
                    on_commit(runtime)

        self.cluster.submit(txn, on_commit=finished)
        return txn
