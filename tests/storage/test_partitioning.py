"""Unit + property tests for the static partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.storage.partitioning import (
    HashPartitioner,
    RangePartitioner,
    make_uniform_ranges,
)


class TestRangePartitioner:
    def test_basic_lookup(self):
        part = RangePartitioner([0, 100, 200], [0, 1, 2])
        assert part.home(0) == 0
        assert part.home(99) == 0
        assert part.home(100) == 1
        assert part.home(250) == 2

    def test_key_below_first_start_maps_to_first(self):
        part = RangePartitioner([10], [3])
        assert part.home(0) == 3

    def test_rejects_unsorted_starts(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner([10, 5], [0, 1])

    def test_rejects_duplicate_starts(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner([5, 5], [0, 1])

    def test_rejects_non_int_key(self):
        part = make_uniform_ranges(10, 2)
        with pytest.raises(ConfigurationError):
            part.home(("tuple", 1))

    def test_reassign_middle(self):
        part = RangePartitioner([0], [0])
        part.reassign(10, 20, 1)
        assert part.home(9) == 0
        assert part.home(10) == 1
        assert part.home(19) == 1
        assert part.home(20) == 0

    def test_reassign_coalesces_segments(self):
        part = RangePartitioner([0, 10, 20], [0, 1, 0])
        part.reassign(10, 20, 0)
        assert list(part.owner_spans(0, 30)) == [(0, 30, 0)]

    def test_reassign_empty_range_rejected(self):
        part = make_uniform_ranges(10, 2)
        with pytest.raises(ConfigurationError):
            part.reassign(5, 5, 0)

    def test_owner_spans(self):
        part = RangePartitioner([0, 10, 20], [0, 1, 0])
        assert list(part.owner_spans(0, 30)) == [
            (0, 10, 0), (10, 20, 1), (20, 30, 0)
        ]
        assert list(part.owner_spans(5, 25)) == [
            (5, 10, 0), (10, 20, 1), (20, 25, 0)
        ]

    @given(
        num_keys=st.integers(10, 500),
        num_nodes=st.integers(1, 10),
        key=st.integers(0, 499),
    )
    @settings(max_examples=60)
    def test_uniform_ranges_cover_whole_keyspace(self, num_keys, num_nodes, key):
        if num_keys < num_nodes or key >= num_keys:
            return
        part = make_uniform_ranges(num_keys, num_nodes)
        assert 0 <= part.home(key) < num_nodes

    @given(
        moves=st.lists(
            st.tuples(
                st.integers(0, 90), st.integers(1, 10), st.integers(0, 3)
            ),
            max_size=10,
        ),
        key=st.integers(0, 99),
    )
    @settings(max_examples=60)
    def test_reassign_sequence_last_writer_wins(self, moves, key):
        """After reassignments, a key's home is the last move covering it."""
        part = RangePartitioner([0], [0])
        expected = 0
        for lo, span, owner in moves:
            part.reassign(lo, lo + span, owner)
            if lo <= key < lo + span:
                expected = owner
        assert part.home(key) == expected


class TestHashPartitioner:
    def test_stable_and_in_range(self):
        part = HashPartitioner(7)
        for key in [0, 1, 42, ("stock", 3, 5), "abc"]:
            node = part.home(key)
            assert 0 <= node < 7
            assert part.home(key) == node

    def test_spreads_keys(self):
        part = HashPartitioner(4)
        counts = [0, 0, 0, 0]
        for key in range(4000):
            counts[part.home(key)] += 1
        assert min(counts) > 700

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)
