"""TPC-C (New-Order + Payment) with hot-spot concentration (§5.3.1).

The paper runs only New-Order and Payment — 88 % of the standard mix and
the source of its characteristics — over 400 warehouses on 20 nodes, and
skews 50/80/90 % of requests onto the first node's warehouses to degrade
the warehouse-based partitioning.

Keys are schema-faithful tuples; the partitioner places a warehouse's
entire subtree on one node, exactly like the paper's warehouse-based
initial partitioning:

* ``("wh", w)`` — warehouse row (Payment writes W_YTD),
* ``("dist", w, d)`` — district row (New-Order writes D_NEXT_O_ID),
* ``("cust", w, d, c)`` — customer row,
* ``("stock", w, i)`` — stock rows (New-Order writes S_QUANTITY).

The read-only ITEM table is replicated on every node in real TPC-C
deployments, so item reads never cross the network and are omitted from
read-sets (they contribute only logic cost, captured by the New-Order
profile's higher ``logic_factor``).  Order/order-line inserts create
fresh keys that no concurrent transaction can conflict on; their work is
likewise folded into the logic cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import ExecutionProfile, Key, Transaction
from repro.storage.partitioning import (
    KeyedPartitioner,
    Partitioner,
    RangePartitioner,
)

# Section 5.3.1's mix.  New-Order and Payment are 45 % and 43 % of the
# standard TPC-C mix, so New-Order is 45/88 of the pair; the remote
# probabilities are the TPC-C specification's.
NEW_ORDER_RATIO = 0.51
#: Per-item probability a New-Order line hits a remote warehouse.
REMOTE_ITEM_PROB = 0.01
#: Probability Payment pays through a remote warehouse's customer.
REMOTE_PAYMENT_PROB = 0.15

# The schema's shape per warehouse, scaled down from TPC-C's (key-space
# size only affects memory): 10 districts, 30 customers per district
# (from 3000) and 1000 items (from 100k) with one stock row each.
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 30
ITEMS = 1000


@dataclass(frozen=True, slots=True)
class TPCCConfig:
    """Scaled-down TPC-C shape."""

    num_warehouses: int = 400
    num_nodes: int = 20
    hot_fraction: float = 0.0
    """Fraction of requests concentrated on the first node's warehouses
    (the paper's 50 %/80 %/90 % settings; 0 = the Normal workload)."""

    def __post_init__(self) -> None:
        if self.num_warehouses < self.num_nodes:
            raise ConfigurationError("need >= 1 warehouse per node")
        if self.num_warehouses % self.num_nodes != 0:
            raise ConfigurationError(
                "num_warehouses must divide evenly across nodes"
            )
        if not 0 <= self.hot_fraction <= 1:
            raise ConfigurationError("hot_fraction must be in [0,1]")

    @property
    def warehouses_per_node(self) -> int:
        return self.num_warehouses // self.num_nodes


def warehouse_of_key(key: Key) -> int:
    """Extract the warehouse id every TPC-C key embeds."""
    return key[1]  # type: ignore[index]


def tpcc_partitioner(config: TPCCConfig) -> Partitioner:
    """Warehouse-based placement: warehouse w lives on node w // wpn."""
    starts = [
        node * config.warehouses_per_node for node in range(config.num_nodes)
    ]
    by_warehouse = RangePartitioner(starts, list(range(config.num_nodes)))
    return KeyedPartitioner(warehouse_of_key, by_warehouse)


#: Size of every TPC-C record, loaded and transferred.
RECORD_BYTES = 512

#: New-Order touches ~13 records and runs real logic per order line.
NEW_ORDER_PROFILE = ExecutionProfile(logic_factor=2.0,
                                     record_bytes=RECORD_BYTES)
PAYMENT_PROFILE = ExecutionProfile(logic_factor=1.0, record_bytes=RECORD_BYTES)


class TPCCWorkload:
    """New-Order/Payment transaction factory with a node-0 hot spot."""

    record_bytes = RECORD_BYTES

    def __init__(self, config: TPCCConfig, rng: DeterministicRNG) -> None:
        self.config = config
        self._rng = rng.fork("tpcc")

    # ------------------------------------------------------------------

    def _pick_warehouse(self) -> int:
        cfg = self.config
        if cfg.hot_fraction > 0 and self._rng.random() < cfg.hot_fraction:
            return self._rng.randint(0, cfg.warehouses_per_node - 1)
        return self._rng.randint(0, cfg.num_warehouses - 1)

    def _other_warehouse(self, home: int) -> int:
        cfg = self.config
        if cfg.num_warehouses == 1:
            return home
        other = self._rng.randint(0, cfg.num_warehouses - 2)
        return other if other < home else other + 1

    def make_txn(self, txn_id: int, now_us: float) -> Transaction:
        if self._rng.random() < NEW_ORDER_RATIO:
            return self._new_order(txn_id, now_us)
        return self._payment(txn_id, now_us)

    def _new_order(self, txn_id: int, now_us: float) -> Transaction:
        w = self._pick_warehouse()
        d = self._rng.randint(0, DISTRICTS_PER_WAREHOUSE - 1)
        c = self._rng.randint(0, CUSTOMERS_PER_DISTRICT - 1)
        ol_cnt = self._rng.randint(5, 15)

        reads: set[Key] = {("wh", w), ("dist", w, d), ("cust", w, d, c)}
        writes: set[Key] = {("dist", w, d)}
        seen_items: set[int] = set()
        while len(seen_items) < ol_cnt:
            item = self._rng.randint(0, ITEMS - 1)
            if item in seen_items:
                continue
            seen_items.add(item)
            supply_w = (
                self._other_warehouse(w)
                if self._rng.random() < REMOTE_ITEM_PROB
                else w
            )
            stock_key = ("stock", supply_w, item)
            reads.add(stock_key)
            writes.add(stock_key)
        return Transaction(
            txn_id=txn_id,
            read_set=frozenset(reads),
            write_set=frozenset(writes),
            arrival_time=now_us,
            profile=NEW_ORDER_PROFILE,
        )

    def _payment(self, txn_id: int, now_us: float) -> Transaction:
        w = self._pick_warehouse()
        d = self._rng.randint(0, DISTRICTS_PER_WAREHOUSE - 1)
        if self._rng.random() < REMOTE_PAYMENT_PROB:
            cw = self._other_warehouse(w)
        else:
            cw = w
        cd = self._rng.randint(0, DISTRICTS_PER_WAREHOUSE - 1)
        cc = self._rng.randint(0, CUSTOMERS_PER_DISTRICT - 1)

        touched: set[Key] = {
            ("wh", w),
            ("dist", w, d),
            ("cust", cw, cd, cc),
        }
        return Transaction(
            txn_id=txn_id,
            read_set=frozenset(touched),
            write_set=frozenset(touched),
            arrival_time=now_us,
            profile=PAYMENT_PROFILE,
        )

    # ------------------------------------------------------------------

    def all_keys(self) -> Iterator[Key]:
        """Every record to load: warehouses, districts, customers, stock."""
        for w in range(self.config.num_warehouses):
            yield ("wh", w)
            for d in range(DISTRICTS_PER_WAREHOUSE):
                yield ("dist", w, d)
                for c in range(CUSTOMERS_PER_DISTRICT):
                    yield ("cust", w, d, c)
            for item in range(ITEMS):
                yield ("stock", w, item)
