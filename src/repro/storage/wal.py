"""Durability structures: undo log and command log.

Section 4.3 of the paper: each node keeps an UNDO log for in-flight
writes and a command log of totally ordered transaction requests;
recovery deterministically replays the command log (including the
prescient routing and data fusion, which are pure functions of the
ordered input).  The paper also restores a checkpoint first, to shorten
the replay; the simulator always replays the whole log, which reaches
the identical state.

In the simulator the logs are in-memory lists — what matters for the
reproduction is the *replay semantics*, which :mod:`repro.engine.recovery`
exercises end to end.
"""

from __future__ import annotations

from repro.common.errors import StorageError
from repro.common.types import Batch, TxnId
from repro.storage.store import Record, StoreBackend


class UndoLog:
    """Per-node undo records grouped by transaction.

    ``save`` is called before each write with the record's pre-image;
    ``rollback`` restores them in reverse order; ``forget`` drops the
    entries at commit.
    """

    def __init__(self) -> None:
        self._entries: dict[TxnId, list[Record]] = {}

    def save(self, txn_id: TxnId, pre_image: Record) -> None:
        self._entries.setdefault(txn_id, []).append(pre_image)

    def rollback(self, txn_id: TxnId, store: StoreBackend) -> int:
        """Undo all of ``txn_id``'s writes on ``store``; returns count."""
        entries = self._entries.pop(txn_id, [])
        for pre_image in reversed(entries):
            store.restore(pre_image)
        return len(entries)

    def forget(self, txn_id: TxnId) -> None:
        """Discard undo entries after a commit."""
        self._entries.pop(txn_id, None)

    def pending(self) -> int:
        """Number of transactions with live undo entries."""
        return len(self._entries)


class CommandLog:
    """The totally ordered input log.

    Stores whole batches in epoch order.  Replaying the log through the
    same (deterministic) router and executor reproduces the exact same
    final state — that is the recovery guarantee the tests assert.
    """

    def __init__(self) -> None:
        self._batches: list[Batch] = []

    def append(self, batch: Batch) -> None:
        if self._batches and batch.epoch <= self._batches[-1].epoch:
            raise StorageError(
                f"command log epochs must increase: got {batch.epoch} after "
                f"{self._batches[-1].epoch}"
            )
        self._batches.append(batch)

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self):
        return iter(self._batches)
