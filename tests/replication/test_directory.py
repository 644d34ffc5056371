"""ReplicaDirectory: validity epochs and outages."""

import pytest

from repro.replication.directory import ReplicaDirectory

ACTIVE = [0, 1, 2, 3]


class TestGeometry:
    def test_rejects_bad_range_records(self):
        with pytest.raises(ValueError):
            ReplicaDirectory(0)


class TestValidity:
    def test_install_makes_holder_valid(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        assert d.valid_holders(2, ACTIVE) == [1]
        assert d.is_valid_holder(2, 1, ACTIVE)

    def test_untracked_range_has_no_holders(self):
        d = ReplicaDirectory(50)
        assert d.valid_holders(7, ACTIVE) == []

    def test_invalidate_after_install_invalidates(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.invalidate(2, epoch=6)
        assert d.valid_holders(2, ACTIVE) == []

    def test_same_epoch_write_beats_install(self):
        # Strict inequality: a write routed in the install's own epoch
        # may serialize after the copy was read, so the holder must NOT
        # count as valid.
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.invalidate(2, epoch=5)
        assert d.valid_holders(2, ACTIVE) == []

    def test_reinstall_after_invalidation_revalidates(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.invalidate(2, epoch=6)
        d.install(2, 1, epoch=7)
        assert d.valid_holders(2, ACTIVE) == [1]

    def test_invalidate_is_commutative_max(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=10)
        d.invalidate(2, epoch=8)
        d.invalidate(2, epoch=3)  # out-of-order replay of older write
        assert d.valid_holders(2, ACTIVE) == [1]
        d.invalidate(2, epoch=11)
        assert d.valid_holders(2, ACTIVE) == []

    def test_install_keeps_newest_epoch(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=9)
        d.install(2, 1, epoch=4)  # stale duplicate must not regress
        d.invalidate(2, epoch=5)
        assert d.valid_holders(2, ACTIVE) == [1]

    def test_invalidate_untracked_range_is_noop(self):
        d = ReplicaDirectory(50)
        d.invalidate(99, epoch=3)
        assert d.invalidations_total == 0

    def test_holders_sorted_by_node_id(self):
        d = ReplicaDirectory(50)
        d.install(2, 3, epoch=5)
        d.install(2, 0, epoch=6)
        d.install(2, 2, epoch=7)
        assert d.valid_holders(2, ACTIVE) == [0, 2, 3]


class TestLiveness:
    def test_inactive_nodes_excluded(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.install(2, 3, epoch=5)
        assert d.valid_holders(2, [0, 1, 2]) == [1]  # node 3 crashed

    def test_outage_excludes_without_forgetting(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.set_outage(1)
        assert d.valid_holders(2, ACTIVE) == []
        d.clear_outage(1)
        # The side-store was never wrong, merely unreachable.
        assert d.valid_holders(2, ACTIVE) == [1]


class TestStats:
    def test_snapshot_counts(self):
        d = ReplicaDirectory(50)
        d.install(2, 1, epoch=5)
        d.install(3, 2, epoch=6)
        d.invalidate(2, epoch=7)
        snap = d.stats_snapshot()
        assert snap["replica_installs"] == 2
        assert snap["replica_invalidations"] == 1
        assert snap["replica_ranges_tracked"] == 2
