"""Exception hierarchy for the Hermes reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An experiment or engine configuration is inconsistent.

    Examples: a negative node count, a fusion-table capacity of zero with
    eviction enabled, or a workload that references more partitions than
    the cluster has nodes.
    """


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Raised for events scheduled in the past, running a finished kernel,
    or resource misuse (releasing a lock that is not held).
    """


class StorageError(ReproError):
    """A storage-level invariant was violated.

    Examples: reading a key from a node that does not own it, or
    installing a migrated record on a node that already holds it.
    """


class RoutingError(ReproError):
    """A router produced an invalid plan.

    Examples: routing to a node outside the active topology or returning a
    permutation that drops or duplicates transactions.
    """


class MigrationError(ReproError):
    """A live-migration step could not be applied consistently."""


class FaultInjectionError(ReproError):
    """A fault plan or injection request is invalid.

    Examples: a partition naming a node outside the cluster, a loss
    probability outside [0, 1], or enabling probabilistic faults on a
    network that has no fault RNG installed.
    """


class TimeoutExceeded(ReproError):
    """A retried operation exhausted its :class:`RetryPolicy` budget.

    Raised when a reliable message (remote read, migration chunk
    transfer, write-back) is still undelivered after the final retry
    attempt's timeout — in practice, a partition or loss episode that
    outlasted the configured backoff horizon.
    """

    def __init__(self, description: str, attempts: int) -> None:
        super().__init__(
            f"{description} undelivered after {attempts} attempts"
        )
        self.attempts = attempts


class TransactionAborted(ReproError):
    """A transaction aborted due to its own logic (user abort).

    Deterministic systems have no system-induced aborts; this exception
    models the only abort source the paper considers (Section 4.2).
    """

    def __init__(self, txn_id: int, reason: str = "user abort") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason
