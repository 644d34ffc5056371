"""Static data partitioners.

A partitioner answers "which node is the *static home* of this key?".
Routers combine this with the live ownership overlay (the fusion table)
to compute where a record actually is right now.

Three concrete schemes cover every experiment in the paper:

* :class:`RangePartitioner` — contiguous integer ranges (the paper's
  default initial partitioning, and the target of cold migrations);
* :class:`HashPartitioner` — hash placement (Figure 13);
* :class:`KeyedPartitioner` — partition by a derived attribute, e.g.
  TPC-C keys by warehouse.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.common.errors import ConfigurationError
from repro.common.types import Key, NodeId


class Partitioner(ABC):
    """Maps keys to their static home node."""

    #: Monotonic counter bumped on every mutation of the static mapping.
    #: Consumers that cache ``home`` results (the ownership view) compare
    #: it to detect re-partitioning and invalidate.  Immutable schemes
    #: leave it at 0 forever.
    version: int = 0

    @abstractmethod
    def home(self, key: Key) -> NodeId:
        """Return the node that statically owns ``key``."""


class RangePartitioner(Partitioner):
    """Contiguous integer ranges, mutable to support cold re-partitioning.

    The key space is split into segments ``[start_i, start_{i+1})`` each
    owned by one node.  ``reassign`` carves out a sub-range and hands it
    to a different node — this is exactly what a Squall-style cold
    migration plan does when a node is added or removed.
    """

    def __init__(self, starts: Iterable[int], owners: Iterable[NodeId]) -> None:
        self._starts = list(starts)
        self._owners = list(owners)
        if not self._starts:
            raise ConfigurationError("RangePartitioner needs at least one range")
        if len(self._starts) != len(self._owners):
            raise ConfigurationError("starts and owners must align")
        if self._starts != sorted(self._starts):
            raise ConfigurationError("range starts must be sorted")
        if len(set(self._starts)) != len(self._starts):
            raise ConfigurationError("range starts must be distinct")

    def home(self, key: Key) -> NodeId:
        if not isinstance(key, int):
            raise ConfigurationError(
                f"RangePartitioner only handles int keys, got {type(key).__name__}"
            )
        index = bisect.bisect_right(self._starts, key) - 1
        if index < 0:
            index = 0
        return self._owners[index]

    def reassign(self, lo: int, hi: int, new_owner: NodeId) -> None:
        """Move the key range ``[lo, hi)`` to ``new_owner``.

        Splits existing segments at the boundaries, rewrites owners inside
        the window, then coalesces adjacent segments with equal owners.
        """
        if hi <= lo:
            raise ConfigurationError(f"empty range [{lo}, {hi})")
        self._split_at(lo)
        self._split_at(hi)
        for i, start in enumerate(self._starts):
            if lo <= start < hi:
                self._owners[i] = new_owner
        self._coalesce()
        self.version += 1

    def _split_at(self, boundary: int) -> None:
        index = bisect.bisect_right(self._starts, boundary) - 1
        if index < 0:
            # The boundary precedes every segment; prepend a segment that
            # inherits the first owner so lookups below it stay stable.
            self._starts.insert(0, boundary)
            self._owners.insert(0, self._owners[0])
            return
        if self._starts[index] == boundary:
            return
        self._starts.insert(index + 1, boundary)
        self._owners.insert(index + 1, self._owners[index])

    def _coalesce(self) -> None:
        starts: list[int] = []
        owners: list[NodeId] = []
        for start, owner in zip(self._starts, self._owners):
            if owners and owners[-1] == owner:
                continue
            starts.append(start)
            owners.append(owner)
        self._starts = starts
        self._owners = owners

    def owner_spans(
        self, key_lo: int, key_hi: int
    ) -> Iterable[tuple[int, int, NodeId]]:
        """Yield ``(lo, hi, owner)`` spans covering ``[key_lo, key_hi)``.

        The interval form of :meth:`home`: a bisect finds the first
        overlapping segment and the scan stops past ``key_hi``, so the
        cost is O(log segments + spans yielded) — this is what lets a
        2M-key bulk load place whole ranges without per-key lookups.
        Keys below the first segment clamp to the first owner, exactly
        as :meth:`home` does.
        """
        if key_hi <= key_lo:
            return
        starts = self._starts
        owners = self._owners
        index = bisect.bisect_right(starts, key_lo) - 1
        if index < 0:
            index = 0
        lo = key_lo
        while lo < key_hi:
            end = starts[index + 1] if index + 1 < len(starts) else key_hi
            hi = min(end, key_hi)
            if hi > lo:
                yield lo, hi, owners[index]
            lo = hi
            index += 1

    def segments(self) -> list[tuple[int, NodeId]]:
        """Current (start, owner) segments, for inspection and plans."""
        return list(zip(self._starts, self._owners))

    def keys_owned_by(self, node: NodeId, key_lo: int, key_hi: int) -> Iterable[int]:
        """Yield every key in [key_lo, key_hi) whose home is ``node``.

        Used by cold-migration planners to enumerate a partition's keys
        without materializing the whole keyspace.
        """
        bounds = self._starts + [key_hi]
        for i, owner in enumerate(self._owners):
            if owner != node:
                continue
            seg_lo = max(self._starts[i], key_lo)
            seg_hi = min(bounds[i + 1], key_hi)
            yield from range(seg_lo, seg_hi)


def make_uniform_ranges(num_keys: int, num_nodes: int) -> RangePartitioner:
    """Split ``[0, num_keys)`` into ``num_nodes`` near-equal ranges."""
    if num_keys < num_nodes:
        raise ConfigurationError("need at least one key per node")
    starts = [(num_keys * i) // num_nodes for i in range(num_nodes)]
    return RangePartitioner(starts, list(range(num_nodes)))


class HashPartitioner(Partitioner):
    """Deterministic hash placement over ``num_nodes`` nodes.

    Uses a multiplicative integer hash rather than Python's salted
    ``hash()`` so placement is stable across processes.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self._num_nodes = num_nodes

    def home(self, key: Key) -> NodeId:
        if isinstance(key, int):
            h = key
        else:
            h = int.from_bytes(repr(key).encode("utf-8")[:8].ljust(8, b"\0"), "big")
        h = (h * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return (h >> 32) % self._num_nodes


class KeyedPartitioner(Partitioner):
    """Partition by a derived attribute of the key.

    TPC-C keys are tuples like ``("stock", warehouse, item)``; the derive
    function extracts the warehouse id, and the inner partitioner places
    warehouses on nodes.
    """

    def __init__(self, derive: Callable[[Key], int], inner: Partitioner) -> None:
        self._derive = derive
        self._inner = inner

    @property
    def version(self) -> int:  # type: ignore[override]
        return self._inner.version

    def home(self, key: Key) -> NodeId:
        return self._inner.home(self._derive(key))
