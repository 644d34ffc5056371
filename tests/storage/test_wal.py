"""Unit tests for the undo log and the command log."""

import pytest

from repro.common.errors import StorageError
from repro.common.types import Batch, Transaction
from repro.storage.store import RecordStore
from repro.storage.wal import CommandLog, UndoLog


@pytest.fixture
def store():
    s = RecordStore(0)
    for key in range(4):
        s.load(key)
    return s


class TestUndoLog:
    def test_rollback_restores_in_reverse(self, store):
        undo = UndoLog()
        undo.save(1, store.write(0, txn_id=1))
        undo.save(1, store.write(0, txn_id=1))
        assert store.read(0).version == 2
        count = undo.rollback(1, store)
        assert count == 2
        assert store.read(0).version == 0

    def test_forget_clears_entries(self, store):
        undo = UndoLog()
        undo.save(1, store.write(0, txn_id=1))
        undo.forget(1)
        assert undo.pending() == 0
        assert undo.rollback(1, store) == 0
        assert store.read(0).version == 1

    def test_rollback_unknown_txn_is_noop(self, store):
        assert UndoLog().rollback(42, store) == 0


class TestCommandLog:
    def _batch(self, epoch):
        return Batch(epoch=epoch, txns=[Transaction.read_write(epoch, [1], [1])])

    def test_append_and_iterate(self):
        log = CommandLog()
        log.append(self._batch(1))
        log.append(self._batch(2))
        assert len(log) == 2
        assert [b.epoch for b in log] == [1, 2]

    def test_epochs_must_increase(self):
        log = CommandLog()
        log.append(self._batch(2))
        with pytest.raises(StorageError):
            log.append(self._batch(2))
