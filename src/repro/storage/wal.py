"""Durability structure: the command log.

Section 4.3 of the paper: each node keeps a command log of totally
ordered transaction requests; recovery deterministically replays it
(including the prescient routing and data fusion, which are pure
functions of the ordered input).  The paper also restores a checkpoint
first, to shorten the replay; the simulator always replays the whole
log, which reaches the identical state.

The paper's UNDO log for in-flight writes has no counterpart here: the
engine settles a transaction's fate before its first write, so an abort
writes nothing and there is nothing to undo.

In the simulator the log is an in-memory list — what matters for the
reproduction is the *replay semantics*, which :mod:`repro.engine.recovery`
exercises end to end.
"""

from __future__ import annotations

from repro.common.errors import StorageError
from repro.common.types import Batch


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
