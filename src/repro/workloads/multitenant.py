"""The multi-tenant workload with a changing hot spot (§5.3.2, §5.4).

Each server hosts ``tenants_per_node`` non-overlapping tenant databases;
every transaction read-modify-writes two records of a *single* tenant,
drawn from a Zipfian (θ = 0.9).  A configurable share of the load (90 %
in Figure 12) concentrates on the tenants of one node, and the hot node
rotates every ``rotation_interval_us`` to model tenants whose users wake
up in different time zones.

Key layout: tenant ``t`` owns the contiguous integer range
``[t·records_per_tenant, (t+1)·records_per_tenant)``, so the three
initial partitionings of Figure 13 are simple placements of tenant
blocks:

* **perfect** — each node gets exactly its own tenants' ranges;
* **hash**   — keys hash-scatter across nodes (creates distributed
  transactions, since a transaction's two records may land apart);
* **skewed** — the first :data:`SKEWED_TENANTS` tenants (≈43 % of data) pile
  onto node 0.

Section 5.4's scale-out experiment uses ``hot_mode="fixed"``: one hot
tenant on node 0 receiving ``hot_share`` of the load, later relieved by
migrating it to a new node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import ExecutionProfile, Transaction
from repro.storage.partitioning import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.workloads.zipf import ZipfSampler

# Section 5.3.2's transaction: a read-modify-write of two records of one
# tenant, drawn from a Zipfian with theta 0.9, each record this size.
RECORDS_PER_TXN = 2
ZIPF_THETA = 0.9
RECORD_BYTES = 1024


@dataclass(frozen=True, slots=True)
class MultiTenantConfig:
    """Shape of the multi-tenant workload."""

    num_nodes: int = 4
    tenants_per_node: int = 4
    records_per_tenant: int = 2500
    """Scaled from the paper's 2.5 M records per tenant."""

    hot_share: float = 0.9
    """Fraction of transactions aimed at the hot node's tenants."""

    rotation_interval_us: float = 500e6
    """Hot-node rotation period (the paper's 500 seconds)."""

    hot_mode: str = "rotate"
    """``"rotate"`` cycles the hot node (Figure 12); ``"fixed"`` pins the
    hot spot to ``fixed_hot_tenant`` (the Figure 14 scale-out setup)."""

    fixed_hot_tenant: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.tenants_per_node < 1:
            raise ConfigurationError("need >= 1 node and tenant")
        if RECORDS_PER_TXN > self.records_per_tenant:
            raise ConfigurationError("transaction larger than a tenant")
        if not 0 <= self.hot_share <= 1:
            raise ConfigurationError("hot_share must be in [0,1]")
        if self.hot_mode not in ("rotate", "fixed"):
            raise ConfigurationError("hot_mode must be 'rotate' or 'fixed'")
        if self.rotation_interval_us <= 0:
            raise ConfigurationError("rotation interval must be positive")

    @property
    def num_tenants(self) -> int:
        return self.num_nodes * self.tenants_per_node

    @property
    def num_keys(self) -> int:
        return self.num_tenants * self.records_per_tenant

    def tenants_of_node(self, node: int) -> range:
        return range(
            node * self.tenants_per_node, (node + 1) * self.tenants_per_node
        )

    def tenant_range(self, tenant: int) -> tuple[int, int]:
        lo = tenant * self.records_per_tenant
        return lo, lo + self.records_per_tenant


class MultiTenantWorkload:
    """RMW-two-records-in-one-tenant transaction factory."""

    record_bytes = RECORD_BYTES

    def __init__(self, config: MultiTenantConfig, rng: DeterministicRNG):
        self.config = config
        self._rng = rng.fork("multitenant")
        self._zipf = ZipfSampler(
            config.records_per_tenant, ZIPF_THETA, self._rng.fork("z")
        )
        self._profile = ExecutionProfile(record_bytes=RECORD_BYTES)
        # ``make_txn`` runs once per client request, so the tenant pick is
        # hot; bind the underlying ``random.Random`` draws to skip the
        # wrapper frames.  ``_randbelow(n)`` is the draw ``randint(0,
        # n - 1)`` makes after its argument checks, so the sequence is
        # the same.
        py = self._rng.py
        self._random = py.random
        self._randbelow = py._randbelow

    def hot_node_at(self, now_us: float) -> int:
        """Which node's tenants are hot at this time."""
        cfg = self.config
        if cfg.hot_mode == "fixed":
            return cfg.fixed_hot_tenant // cfg.tenants_per_node
        period = int(now_us // cfg.rotation_interval_us)
        return period % cfg.num_nodes

    def _pick_tenant(self, now_us: float) -> int:
        cfg = self.config
        if self._random() < cfg.hot_share:
            if cfg.hot_mode == "fixed":
                return cfg.fixed_hot_tenant
            hot = self.hot_node_at(now_us)
            tenants = cfg.tenants_of_node(hot)
            return tenants[self._randbelow(len(tenants))]
        return self._randbelow(cfg.num_tenants)

    def make_txn(self, txn_id: int, now_us: float) -> Transaction:
        cfg = self.config
        tenant = self._pick_tenant(now_us)
        lo = tenant * cfg.records_per_tenant
        offsets = self._zipf.sample_distinct(RECORDS_PER_TXN)
        keys = frozenset([lo + offset for offset in offsets])
        return Transaction(
            txn_id=txn_id,
            read_set=keys,
            write_set=keys,
            arrival_time=now_us,
            profile=self._profile,
            tenant=tenant,
        )

    def all_keys(self) -> range:
        return range(self.config.num_keys)


# ----------------------------------------------------------------------
# Initial partitionings (Figure 13)
# ----------------------------------------------------------------------


def perfect_partitioner(config: MultiTenantConfig) -> RangePartitioner:
    """Each node statically owns its own tenants' ranges."""
    starts = [
        node * config.tenants_per_node * config.records_per_tenant
        for node in range(config.num_nodes)
    ]
    return RangePartitioner(starts, list(range(config.num_nodes)))


def hash_partitioner(config: MultiTenantConfig) -> Partitioner:
    """Keys scatter across nodes; co-accessed records usually separate."""
    return HashPartitioner(config.num_nodes)


#: Tenants the skewed layout (Figure 13) piles on node 0: 7 of the
#: default 16.
SKEWED_TENANTS = 7


def skewed_partitioner(config: MultiTenantConfig) -> RangePartitioner:
    """First :data:`SKEWED_TENANTS` tenants (~43 % of data) pile on node 0.

    The remaining tenants spread evenly over the remaining nodes, as in
    the paper's skewed initial partitioning.
    """
    if config.num_tenants <= SKEWED_TENANTS:
        raise ConfigurationError(
            f"skewed layout needs > {SKEWED_TENANTS} tenants"
        )
    if config.num_nodes < 2:
        raise ConfigurationError("skewed layout needs >= 2 nodes")
    starts = [0]
    owners = [0]
    rest = list(range(SKEWED_TENANTS, config.num_tenants))
    others = list(range(1, config.num_nodes))
    per_node = max(1, len(rest) // len(others))
    for index, tenant in enumerate(rest):
        node = others[min(index // per_node, len(others) - 1)]
        start = tenant * config.records_per_tenant
        if owners[-1] != node:
            starts.append(start)
            owners.append(node)
    return RangePartitioner(starts, owners)
