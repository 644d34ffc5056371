"""Hot-range contention workload for the straggler × clone experiment.

A structural two-phase scenario on a four-node cluster (node ``n`` owns
the ``n``-th quarter of the keyspace):

* **Warm phase** (``now < warm_until_us``) — consumer localities (nodes
  1 and 2 by default) issue read-only transactions pairing two local
  keys with one key from the *hot range* (the first ``hot_records``
  keys, owned by node 0).  Under a replication strategy this demand
  provisions replica copies of the hot range into both consumers' side
  stores.
* **Measured phase** — traffic shifts entirely to the *reader* node
  (node 3): the same two-local-plus-one-hot shape, now mastered at a
  node that holds **no** replica.  Every hot read must be served
  remotely — by a replica holder when one is valid — which is exactly
  the regime where request cloning (first response wins) beats pinning
  each read to a single holder.  A small write trickle into node 0's
  non-hot span keeps the invalidation machinery honest without ever
  touching the hot range.

The phase boundary is also where the companion experiment starts a
:class:`~repro.faults.plan.StragglerFault` on one holder, so the
measured percentiles isolate "reads routed to a slow holder" from "the
slow node's own transactions" (the straggled node masters nothing after
warm-up).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction

__all__ = ["HotRangeConfig", "HotRangeWorkload"]


@dataclass(frozen=True, slots=True)
class HotRangeConfig:
    num_keys: int = 4_000
    num_nodes: int = 4
    #: the hot range is keys ``[0, hot_records)`` — owned by node 0.
    hot_records: int = 50
    #: localities whose warm-phase demand provisions the replicas.
    consumer_nodes: tuple[int, ...] = (1, 2)
    #: the measured locality; must hold no replica (it never reads the
    #: hot range during the warm phase).
    reader_node: int = 3
    #: phase boundary in simulated microseconds.
    warm_until_us: float = 1_000_000.0
    #: fraction of measured-phase arrivals that are single-key writes
    #: into node 0's non-hot span.
    write_ratio: float = 0.1

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("need at least two nodes")
        if self.num_keys < self.num_nodes:
            raise ConfigurationError("need at least one key per node")
        span = self.num_keys // self.num_nodes
        if not 0 < self.hot_records <= span // 2:
            raise ConfigurationError(
                "hot_records must fit in half of node 0's span "
                "(the other half absorbs the write trickle)"
            )
        if not self.consumer_nodes:
            raise ConfigurationError("need at least one consumer node")
        nodes = (*self.consumer_nodes, self.reader_node)
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("reader must not be a consumer")
        for node in nodes:
            if not 0 < node < self.num_nodes:
                raise ConfigurationError(
                    "consumers and reader must be non-owner nodes in "
                    f"[1, {self.num_nodes})"
                )
        if self.warm_until_us <= 0:
            raise ConfigurationError("warm_until_us must be > 0")
        if not 0.0 <= self.write_ratio < 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1)")


class HotRangeWorkload:
    """Two-phase generator; a pure function of (config, rng, now)."""

    def __init__(self, config: HotRangeConfig, rng: DeterministicRNG) -> None:
        self.config = config
        self.rng = rng.fork("hotrange")
        self._span = config.num_keys // config.num_nodes

    def _local_pair(self, node: int) -> list[int]:
        lo = node * self._span
        rng = self.rng
        first = lo + rng.randint(0, self._span - 1)
        second = lo + rng.randint(0, self._span - 1)
        while second == first:
            second = lo + rng.randint(0, self._span - 1)
        return [first, second]

    def _hot_key(self) -> int:
        return self.rng.randint(0, self.config.hot_records - 1)

    def make_txn(self, txn_id: int, now_us: float) -> Transaction:
        config = self.config
        rng = self.rng
        if now_us < config.warm_until_us:
            consumers = config.consumer_nodes
            node = consumers[rng.randint(0, len(consumers) - 1)]
            reads = self._local_pair(node) + [self._hot_key()]
            return Transaction.read_only(
                txn_id, reads, arrival_time=now_us
            )
        if rng.random() < config.write_ratio:
            # Node 0's upper half: invalidation traffic that never hits
            # the hot range (so the provisioned replicas stay valid).
            victim = self._span // 2 + rng.randint(0, self._span // 2 - 1)
            return Transaction.read_write(
                txn_id, [victim], [victim], arrival_time=now_us
            )
        reads = self._local_pair(config.reader_node) + [self._hot_key()]
        return Transaction.read_only(txn_id, reads, arrival_time=now_us)
