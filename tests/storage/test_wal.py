"""Unit tests for the command log."""

import pytest

from repro.common.errors import StorageError
from repro.common.types import Batch, Transaction
from repro.storage.wal import CommandLog


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
