"""Unit + property tests for conservative ordered locking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.engine.locks import LockManager, LockMode


def collector(log, tag):
    return lambda: log.append(tag)


class TestGrantRules:
    def test_first_exclusive_granted_immediately(self):
        manager = LockManager()
        log = []
        manager.enqueue(1, "k", LockMode.X, collector(log, 1))
        assert log == [1]

    def test_shared_locks_coalesce(self):
        manager = LockManager()
        log = []
        for seq in (1, 2, 3):
            manager.enqueue(seq, "k", LockMode.S, collector(log, seq))
        assert log == [1, 2, 3]

    def test_exclusive_waits_for_shared_holders(self):
        manager = LockManager()
        log = []
        manager.enqueue(1, "k", LockMode.S, collector(log, 1))
        manager.enqueue(2, "k", LockMode.X, collector(log, 2))
        assert log == [1]
        manager.release(1, "k")
        assert log == [1, 2]

    def test_shared_does_not_jump_waiting_exclusive(self):
        # S3 must NOT be granted while X2 waits ahead of it (FIFO fairness
        # and determinism both require it).
        manager = LockManager()
        log = []
        manager.enqueue(1, "k", LockMode.S, collector(log, 1))
        manager.enqueue(2, "k", LockMode.X, collector(log, 2))
        manager.enqueue(3, "k", LockMode.S, collector(log, 3))
        assert log == [1]
        manager.release(1, "k")
        assert log == [1, 2]
        manager.release(2, "k")
        assert log == [1, 2, 3]

    def test_release_grants_shared_run(self):
        manager = LockManager()
        log = []
        manager.enqueue(1, "k", LockMode.X, collector(log, 1))
        for seq in (2, 3, 4):
            manager.enqueue(seq, "k", LockMode.S, collector(log, seq))
        manager.enqueue(5, "k", LockMode.X, collector(log, 5))
        manager.release(1, "k")
        assert log == [1, 2, 3, 4]
        for seq in (2, 3, 4):
            manager.release(seq, "k")
        assert log == [1, 2, 3, 4, 5]

    def test_keys_are_independent(self):
        manager = LockManager()
        log = []
        manager.enqueue(1, "a", LockMode.X, collector(log, "a1"))
        manager.enqueue(2, "b", LockMode.X, collector(log, "b2"))
        assert log == ["a1", "b2"]


class TestErrors:
    def test_out_of_order_enqueue_rejected(self):
        manager = LockManager()
        manager.enqueue(5, "k", LockMode.S, lambda: None)
        with pytest.raises(SimulationError):
            manager.enqueue(4, "k", LockMode.S, lambda: None)

    def test_release_without_grant_rejected(self):
        manager = LockManager()
        manager.enqueue(1, "k", LockMode.X, lambda: None)
        manager.enqueue(2, "k", LockMode.X, lambda: None)
        with pytest.raises(SimulationError):
            manager.release(2, "k")  # queued but not granted

    def test_release_unknown_key_rejected(self):
        with pytest.raises(SimulationError):
            LockManager().release(1, "nope")


class TestIntrospection:
    def test_holders_and_queue_length(self):
        manager = LockManager()
        manager.enqueue(1, "k", LockMode.S, lambda: None)
        manager.enqueue(2, "k", LockMode.S, lambda: None)
        manager.enqueue(3, "k", LockMode.X, lambda: None)
        assert manager.holders("k") == [(1, LockMode.S), (2, LockMode.S)]
        assert manager.queue_length("k") == 3

    def test_queue_length_without_a_waiter(self):
        # "k" reuses the pooled queue "j" left after its waiter drained,
        # and "j" then gets a fresh one: neither holds a waiting deque.
        manager = LockManager()
        manager.enqueue(1, "j", LockMode.X, lambda: None)
        manager.enqueue(2, "j", LockMode.X, lambda: None)
        manager.release(1, "j")
        manager.release(2, "j")
        manager.enqueue(3, "k", LockMode.S, lambda: None)
        manager.enqueue(4, "k", LockMode.S, lambda: None)
        assert manager.queue_length("k") == 2
        manager.enqueue(5, "j", LockMode.S, lambda: None)
        assert manager.queue_length("j") == 1
        assert manager.queue_length("absent") == 0

    def test_outstanding_drains_to_zero(self):
        manager = LockManager()
        manager.enqueue(1, "k", LockMode.X, lambda: None)
        assert manager.outstanding() == 1
        manager.release(1, "k")
        assert manager.outstanding() == 0


@given(
    modes=st.lists(st.sampled_from([LockMode.S, LockMode.X]), min_size=1,
                   max_size=30),
)
@settings(max_examples=80)
def test_property_grant_order_is_fifo_and_exhaustive(modes):
    """Releasing everything in grant order grants every request exactly
    once, in seq order, regardless of the S/X pattern."""
    manager = LockManager()
    granted: list[int] = []
    for seq, mode in enumerate(modes):
        manager.enqueue(seq, "k", mode, collector(granted, seq))
    # Repeatedly release the earliest granted-but-unreleased request.
    released: set[int] = set()
    while len(released) < len(modes):
        ready = [s for s in granted if s not in released]
        assert ready, "deadlock: nothing granted but requests remain"
        seq = ready[0]
        manager.release(seq, "k")
        released.add(seq)
    assert granted == sorted(granted) == list(range(len(modes)))
    assert manager.outstanding() == 0


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([LockMode.S, LockMode.X])),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_property_exclusive_never_shares(ops):
    """At no point does an X holder coexist with any other holder."""
    manager = LockManager()
    seq = 0
    held: list[int] = []
    for key, mode in ops:
        seq += 1
        manager.enqueue(seq, key, mode, lambda: None)
        snapshot = manager.holders(key)
        x_holders = [s for s, m in snapshot if m is LockMode.X]
        if x_holders:
            assert len(snapshot) == 1
        held.append(key)
