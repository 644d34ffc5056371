"""Unit tests for plan types and validation."""

import pytest

from repro.common.errors import RoutingError
from repro.common.types import Transaction
from repro.core.plan import Migration, RoutingPlan, TxnPlan


def rw(txn_id, reads, writes):
    return Transaction.read_write(txn_id, reads, writes)


def valid_plan(txn):
    return TxnPlan(
        txn=txn,
        masters=(0,),
        reads_from={0: frozenset(txn.full_set)},
        writes_at={0: frozenset(txn.write_set)} if txn.write_set else {},
    )


class TestMigration:
    def test_rejects_self_move(self):
        with pytest.raises(RoutingError):
            Migration(key=1, src=2, dst=2)


class TestTxnPlanValidation:
    def test_valid_plan_passes(self):
        valid_plan(rw(1, [1, 2], [2])).validate()

    def test_missing_master_rejected(self):
        plan = TxnPlan(txn=rw(1, [1], [1]), masters=())
        with pytest.raises(RoutingError):
            plan.validate()

    def test_unread_key_rejected(self):
        plan = TxnPlan(
            txn=rw(1, [1, 2], [1]),
            masters=(0,),
            reads_from={0: frozenset([1])},  # key 2 never read
            writes_at={0: frozenset([1])},
        )
        with pytest.raises(RoutingError):
            plan.validate()

    def test_key_read_twice_rejected(self):
        plan = TxnPlan(
            txn=rw(1, [1], [1]),
            masters=(0,),
            reads_from={0: frozenset([1]), 1: frozenset([1])},
            writes_at={0: frozenset([1])},
        )
        with pytest.raises(RoutingError):
            plan.validate()

    def test_wrong_write_cover_rejected(self):
        plan = TxnPlan(
            txn=rw(1, [1, 2], [1, 2]),
            masters=(0,),
            reads_from={0: frozenset([1, 2])},
            writes_at={0: frozenset([1])},  # key 2's write missing
        )
        with pytest.raises(RoutingError):
            plan.validate()

    def test_foreign_migration_rejected(self):
        plan = TxnPlan(
            txn=rw(1, [1], [1]),
            masters=(0,),
            reads_from={0: frozenset([1])},
            writes_at={0: frozenset([1])},
            migrations=(Migration(99, 1, 0),),
        )
        with pytest.raises(RoutingError):
            plan.validate()


    def test_remote_read_count(self):
        plan = TxnPlan(
            txn=rw(1, [1, 2, 3], [1]),
            masters=(0,),
            reads_from={0: frozenset([1]), 1: frozenset([2, 3])},
            writes_at={0: frozenset([1])},
        )
        assert plan.remote_read_count() == 2


class TestRoutingPlanValidation:
    def test_permutation_enforced(self):
        txns = [rw(1, [1], [1]), rw(2, [2], [2])]
        plan = RoutingPlan(epoch=1, plans=[valid_plan(txns[0])])
        with pytest.raises(RoutingError):
            plan.validate([1, 2])

    def test_duplicate_rejected(self):
        txn = rw(1, [1], [1])
        plan = RoutingPlan(epoch=1, plans=[valid_plan(txn), valid_plan(txn)])
        with pytest.raises(RoutingError):
            plan.validate([1])

    def test_loads(self):
        plan = RoutingPlan(
            epoch=1,
            plans=[valid_plan(rw(1, [1], [1])), valid_plan(rw(2, [2], [2]))],
        )
        assert plan.loads(2) == [2, 0]

    def test_total_remote_reads(self):
        plan = RoutingPlan(epoch=1, plans=[valid_plan(rw(1, [1], [1]))])
        assert plan.total_remote_reads() == 0
