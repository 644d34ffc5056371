"""Unit tests for the cold-migration planners (Section 3.3)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.provisioning import (
    ChunkMigration,
    ColdMigrationPlan,
    plan_consolidation,
    plan_scale_out,
)
from repro.storage.partitioning import RangePartitioner


class TestChunkMigration:
    def test_rejects_self_move(self):
        with pytest.raises(ConfigurationError):
            ChunkMigration(src=1, dst=1, keys=(1, 2))

    def test_plan_totals(self):
        plan = ColdMigrationPlan(
            (
                ChunkMigration(0, 1, (1, 2, 3)),
                ChunkMigration(0, 1, (4, 5)),
            )
        )
        assert len(plan) == 2
        assert plan.total_keys() == 5


class TestRemainderExcluding:
    def plan(self):
        return ColdMigrationPlan(
            (
                ChunkMigration(0, 1, (1, 2), range_reassign=(1, 3)),
                ChunkMigration(0, 1, (3, 4), range_reassign=(3, 5)),
                ChunkMigration(0, 2, (5, 6), range_reassign=(5, 7)),
            )
        )

    def test_empty_done_returns_whole_plan_in_order(self):
        plan = self.plan()
        remainder = plan.remainder_excluding(())
        assert remainder.chunks == plan.chunks

    def test_all_chunks_excluded_leaves_empty_plan(self):
        plan = self.plan()
        remainder = plan.remainder_excluding(plan.chunks)
        assert len(remainder) == 0
        assert remainder.total_keys() == 0

    def test_membership_is_by_value_not_identity(self):
        plan = self.plan()
        # An equal chunk built independently must still match.
        twin = ChunkMigration(0, 1, (1, 2), range_reassign=(1, 3))
        assert twin is not plan.chunks[0]
        remainder = plan.remainder_excluding([twin])
        assert remainder.chunks == plan.chunks[1:]

    def test_disjoint_done_set_excludes_nothing(self):
        plan = self.plan()
        foreign = (
            ChunkMigration(2, 3, (99, 100)),
            # Same keys as a plan chunk but a different destination:
            # not the same value, so it must not match.
            ChunkMigration(0, 3, (1, 2), range_reassign=(1, 3)),
        )
        remainder = plan.remainder_excluding(foreign)
        assert remainder.chunks == plan.chunks

    def test_partial_exclusion_preserves_original_order(self):
        plan = self.plan()
        remainder = plan.remainder_excluding([plan.chunks[1]])
        assert remainder.chunks == (plan.chunks[0], plan.chunks[2])


class TestScaleOut:
    def test_chunks_cover_requested_ranges(self):
        plan = plan_scale_out(3, [(0, 0, 25)], chunk_records=10)
        assert len(plan) == 3  # 10 + 10 + 5
        moved = [k for chunk in plan.chunks for k in chunk.keys]
        assert moved == list(range(25))
        assert all(c.dst == 3 and c.src == 0 for c in plan.chunks)
        assert plan.chunks[0].range_reassign == (0, 10)

    def test_moves_planned_in_order(self):
        plan = plan_scale_out(3, [(1, 50, 60), (0, 0, 5)], chunk_records=8)
        assert [(c.src, c.range_reassign) for c in plan.chunks] == [
            (1, (50, 58)), (1, (58, 60)), (0, (0, 5)),
        ]

    def test_rejects_empty_range(self):
        with pytest.raises(ConfigurationError):
            plan_scale_out(1, [(0, 10, 10)], chunk_records=1000)


class TestConsolidation:
    def test_departing_ranges_spread_round_robin(self):
        part = RangePartitioner([0, 30, 60], [0, 1, 0])
        plan = plan_consolidation(
            0, [1], partitioner=part, key_lo=0, key_hi=90, chunk_records=10
        )
        moved = sorted(k for c in plan.chunks for k in c.keys)
        assert moved == list(range(0, 30)) + list(range(60, 90))
        assert all(c.dst == 1 for c in plan.chunks)

    def test_chunks_dealt_over_survivors_in_turn(self):
        part = RangePartitioner([0, 30, 60], [0, 1, 0])
        plan = plan_consolidation(
            0, [1, 2], partitioner=part, key_lo=0, key_hi=90,
            chunk_records=20,
        )
        assert [(c.dst, c.range_reassign) for c in plan.chunks] == [
            (1, (0, 20)), (2, (20, 30)), (1, (60, 80)), (2, (80, 90)),
        ]

    def test_chunks_are_contiguous_runs(self):
        part = RangePartitioner([0, 10, 20], [0, 1, 0])
        plan = plan_consolidation(
            0, [1], partitioner=part, key_lo=0, key_hi=30, chunk_records=100
        )
        # Two disjoint runs (0..9 and 20..29) must not merge into one
        # chunk with a bogus range_reassign.
        assert len(plan) == 2
        for chunk in plan.chunks:
            lo, hi = chunk.range_reassign
            assert list(chunk.keys) == list(range(lo, hi))

    def test_cannot_remove_last_node(self):
        part = RangePartitioner([0], [0])
        with pytest.raises(ConfigurationError):
            plan_consolidation(
                0, [], partitioner=part, key_lo=0, key_hi=10,
                chunk_records=1000,
            )
