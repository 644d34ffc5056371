"""Unit tests for transaction and batch value types."""

import pytest

from repro.common.types import (
    Batch,
    ExecutionProfile,
    Transaction,
    TxnKind,
)


class TestTransaction:
    def test_full_set_unions_reads_and_writes(self):
        txn = Transaction.read_write(1, reads=[1, 2], writes=[2, 3])
        assert txn.full_set == {1, 2, 3}
        assert txn.size == 3

    def test_read_only_constructor(self):
        txn = Transaction.read_only(2, reads=[5, 6])
        assert txn.kind is TxnKind.READ_ONLY
        assert txn.write_set == frozenset()

    def test_read_only_with_writes_rejected(self):
        with pytest.raises(ValueError):
            Transaction(
                txn_id=3,
                read_set=frozenset([1]),
                write_set=frozenset([1]),
                kind=TxnKind.READ_ONLY,
            )

    def test_identity_equality(self):
        a = Transaction.read_write(1, [1], [1])
        b = Transaction.read_write(1, [1], [1])
        assert a != b
        assert a == a

    def test_is_system(self):
        user = Transaction.read_write(1, [1], [1])
        topo = Transaction(
            txn_id=2,
            read_set=frozenset(),
            write_set=frozenset(),
            kind=TxnKind.TOPOLOGY,
            payload=(0, 1),
        )
        assert not user.is_system()
        assert topo.is_system()

    def test_blind_write_key_counts_in_full_set(self):
        txn = Transaction.read_write(1, reads=[], writes=[9])
        assert txn.full_set == {9}


class TestExecutionProfile:
    def test_rejects_negative_logic_factor(self):
        with pytest.raises(ValueError):
            ExecutionProfile(logic_factor=-1.0)

    def test_rejects_zero_record_bytes(self):
        with pytest.raises(ValueError):
            ExecutionProfile(record_bytes=0)


class TestBatch:
    def test_len_iter_ids(self):
        txns = [Transaction.read_write(i, [i], [i]) for i in range(3)]
        batch = Batch(epoch=1, txns=txns)
        assert len(batch) == 3
        assert batch.ids() == [0, 1, 2]
        assert list(batch) == txns
