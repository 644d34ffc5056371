"""Configuration dataclasses for the engine, router, and cost model.

All times are **microseconds of simulated time** and all sizes are bytes.
Defaults are calibrated so that a 20-node cluster under the paper's
Google-YCSB mix lands in a realistic operating regime (executors mostly
busy, distributed transactions dominated by network stalls), which is the
regime in which the paper's comparisons play out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CostModel:
    """Simulated costs charged by the engine.

    The absolute values matter less than the ratios: a remote read costs
    roughly one network round trip (two ``net_latency_us``) plus payload
    transfer, i.e. ~20x a local storage access — the same order of
    magnitude as a 10GbE LAN vs. a main-memory store, which is what makes
    minimizing remote reads worth reordering transactions for.
    """

    local_access_us: float = 15.0
    """CPU time to read or write one record in local storage."""

    logic_us_per_record: float = 10.0
    """CPU time of transaction logic, per record touched."""

    net_latency_us: float = 150.0
    """One-way network message latency between any two nodes."""

    net_bandwidth_bytes_per_us: float = 1250.0
    """Link bandwidth (1250 B/us = 10 Gbit/s)."""

    migration_apply_us: float = 20.0
    """CPU time to install one migrated record (index + ownership)."""

    route_fixed_us: float = 50.0
    """Fixed scheduler cost to process one batch."""

    route_per_txn_us: float = 1.5
    """Scheduler cost per transaction for simple (non-prescient) routers."""

    route_prescient_quad_us: float = 0.08
    """Quadratic-term coefficient of prescient routing: the paper's
    Algorithm 1 is O(a^2 b^2 n) in the worst case; we charge
    ``route_per_txn_us * b + route_prescient_quad_us * b^2`` per batch.
    The scheduler is serial, so once this approaches the epoch length
    (b ≈ 1000 at the default epoch scaling) routing itself becomes the
    bottleneck — the downslope of Figure 10."""

    sequencer_latency_us: float = 400.0
    """Total-ordering (Zab round) latency added to every batch."""

    def __post_init__(self) -> None:
        for name in (
            "local_access_us",
            "logic_us_per_record",
            "net_latency_us",
            "net_bandwidth_bytes_per_us",
            "migration_apply_us",
            "route_fixed_us",
            "route_per_txn_us",
            "route_prescient_quad_us",
            "sequencer_latency_us",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"CostModel.{name} must be >= 0")
        if self.net_bandwidth_bytes_per_us == 0:
            raise ConfigurationError("net_bandwidth_bytes_per_us must be > 0")

    def transfer_us(self, payload_bytes: int) -> float:
        """One-way message delay for ``payload_bytes`` of data."""
        return self.net_latency_us + payload_bytes / self.net_bandwidth_bytes_per_us


#: Multiplier applied to the retry timeout after every attempt.
RETRY_BACKOFF = 2.0


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/retry schedule for reliable message delivery.

    Remote reads, migrated-record shipments, write-backs, and evictions
    are retried with exponential backoff when the network drops or
    delays them (fault injection, :mod:`repro.faults`).  Attempt ``n``
    (0-based) waits ``timeout_us * RETRY_BACKOFF ** n`` before re-sending;
    after ``max_attempts`` sends the message is declared undeliverable
    and :class:`repro.common.errors.TimeoutExceeded` is raised.  The
    engine's schedule is :data:`repro.engine.executor.RETRY_POLICY`.
    """

    timeout_us: float
    """Wait before the first retry."""

    max_attempts: int
    """Total sends (first attempt included) before giving up."""

    def __post_init__(self) -> None:
        if self.timeout_us <= 0:
            raise ConfigurationError("RetryPolicy.timeout_us must be > 0")
        if self.max_attempts < 1:
            raise ConfigurationError("RetryPolicy.max_attempts must be >= 1")

    def delay_us(self, attempt: int) -> float:
        """Timeout after the ``attempt``-th send (0-based)."""
        return self.timeout_us * RETRY_BACKOFF**attempt


@dataclass(frozen=True, slots=True)
class RoutingConfig:
    """Parameters of the prescient routing algorithm (Section 3.2).

    ``alpha`` is the load-imbalance tolerance in θ = ceil(b/n · (1+α)).
    ``reorder`` and ``balance`` gate the two phases of Algorithm 1 so the
    ablation benches can switch them off independently.
    """

    alpha: float = 0.0
    reorder: bool = True
    balance: bool = True

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0")


@dataclass(frozen=True, slots=True)
class FusionConfig:
    """Fusion-table sizing and eviction policy (Section 4.1)."""

    capacity: int = 100_000
    """Maximum number of (key → partition) entries; 0 disables the cap."""

    eviction: str = "lru"
    """Deterministic replacement strategy: ``"fifo"`` or ``"lru"``."""

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ConfigurationError("fusion capacity must be >= 0")
        if self.eviction not in ("fifo", "lru"):
            raise ConfigurationError(
                f"unknown eviction policy {self.eviction!r}; use 'fifo' or 'lru'"
            )


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Per-node engine parameters."""

    workers_per_node: int = 4
    """Executor threads per node; lock-blocked workers model clogging."""

    epoch_us: float = 20_000.0
    """Sequencer epoch length — how often a new batch is cut."""

    max_batch_size: int = 1_000
    """Hard cap on transactions per batch."""

    migration_chunk_records: int = 1_000
    """Records per Squall-style cold-migration chunk (paper uses 1000)."""

    migration_chunk_gap_us: float = 5_000.0
    """Pause between successive chunk migrations (background pacing)."""

    def __post_init__(self) -> None:
        if self.workers_per_node < 1:
            raise ConfigurationError("workers_per_node must be >= 1")
        if self.epoch_us <= 0:
            raise ConfigurationError("epoch_us must be > 0")
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.migration_chunk_records < 1:
            raise ConfigurationError("migration_chunk_records must be >= 1")
        if self.migration_chunk_gap_us < 0:
            raise ConfigurationError("migration_chunk_gap_us must be >= 0")


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Whole-cluster shape: node count plus nested configs."""

    num_nodes: int = 4
    engine: EngineConfig = field(default_factory=EngineConfig)
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
