"""The Google-YCSB workload (Section 5.2.2).

One table of ``num_keys`` records split into uniform ranges, one range
per machine initially.  Two transaction types (read-only and
read-modify-write) each split into local and distributed variants:

* a **local** transaction picks a partition from the time-varying
  Google-trace distribution and reads its records from a Zipfian over
  that partition's keys — so per-machine spikes, skew, and dynamics all
  come from the trace;
* a **distributed** transaction takes one record via the local pattern
  and one from a *global, moving two-sided Zipfian* over the whole
  keyspace, whose peak sweeps the keyspace to model worldwide diurnal
  activity.

Both the distributed and read-write ratios default to the paper's 50 %.
Transaction length is fixed at 2 records by default, or sampled from a
normal distribution for the Figure 9 transaction-length study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import ExecutionProfile, Transaction
from repro.workloads.google_trace import SyntheticGoogleTrace
from repro.workloads.zipf import MovingTwoSidedZipf, ZipfSampler


@dataclass(frozen=True, slots=True)
class YCSBConfig:
    """Knobs of the Google-YCSB workload."""

    num_keys: int = 200_000
    """Total records (the paper's 200 M, downscaled)."""

    num_partitions: int = 20
    records_per_txn: int = 2
    txn_len_mean: float | None = None
    """When set (with ``txn_len_std``), transaction length is sampled
    from a normal distribution — the Figure 9 study."""

    txn_len_std: float = 0.0
    distributed_ratio: float = 0.5
    rw_ratio: float = 0.5
    zipf_theta: float = 0.7
    global_theta: float = 0.8
    global_cycle_us: float = 720e6
    """Period of the global hot spot's sweep (the paper's simulated
    24-hour cycle: a third of the 2160 s emulation)."""

    record_bytes: int = 1024
    abort_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.num_keys < self.num_partitions:
            raise ConfigurationError("need at least one key per partition")
        if not 0 <= self.distributed_ratio <= 1:
            raise ConfigurationError("distributed_ratio must be in [0,1]")
        if not 0 <= self.rw_ratio <= 1:
            raise ConfigurationError("rw_ratio must be in [0,1]")
        if not 0 <= self.abort_ratio <= 1:
            raise ConfigurationError("abort_ratio must be in [0,1]")
        if self.records_per_txn < 1:
            raise ConfigurationError("records_per_txn must be >= 1")

    @property
    def partition_size(self) -> int:
        return self.num_keys // self.num_partitions


class GoogleYCSBWorkload:
    """Transaction factory driven by a synthetic Google trace."""

    def __init__(
        self,
        config: YCSBConfig,
        trace: SyntheticGoogleTrace,
        rng: DeterministicRNG,
    ) -> None:
        if trace.config.num_machines != config.num_partitions:
            raise ConfigurationError(
                "trace machines must equal workload partitions: "
                f"{trace.config.num_machines} != {config.num_partitions}"
            )
        self.config = config
        self.trace = trace
        self._rng = rng.fork("ycsb")
        self._local = ZipfSampler(
            config.partition_size, config.zipf_theta, self._rng.fork("local")
        )
        self._global = MovingTwoSidedZipf(
            config.num_keys,
            config.global_theta,
            config.global_cycle_us,
            self._rng.fork("global"),
        )
        self._profile = ExecutionProfile(record_bytes=config.record_bytes)

    # ------------------------------------------------------------------

    def _txn_length(self) -> int:
        cfg = self.config
        if cfg.txn_len_mean is None:
            return cfg.records_per_txn
        length = round(self._rng.gauss(cfg.txn_len_mean, cfg.txn_len_std))
        return max(1, min(length, cfg.partition_size))

    def _local_key(self, partition: int) -> int:
        offset = self._local.sample()
        return partition * self.config.partition_size + offset

    def make_txn(self, txn_id: int, now_us: float) -> Transaction:
        """Mint one transaction per the Section 5.2.2 recipe.

        A transaction picks *one* partition from the trace's load
        distribution and draws its local records there; a distributed
        transaction additionally takes one record from the global moving
        Zipfian, which usually lands on another partition.
        """
        cfg = self.config
        length = self._txn_length()
        distributed = self._rng.random() < cfg.distributed_ratio
        partition = self.trace.sample_machine(now_us, self._rng.random())

        keys: set[int] = set()
        if distributed:
            # Long transactions carry proportionally more globally-hot
            # records (a quarter of the footprint, at least one): this is
            # what makes the paper's Figure 9 gap widen with transaction
            # length — more cross-machine records per lock-holding span.
            num_global = max(1, length // 4)
            while len(keys) < num_global:
                keys.add(self._global.sample(now_us))
        while len(keys) < length:
            keys.add(self._local_key(partition))

        read_write = self._rng.random() < cfg.rw_ratio
        frozen = frozenset(keys)
        aborts = (
            cfg.abort_ratio > 0 and self._rng.random() < cfg.abort_ratio
        )
        if read_write:
            return Transaction(
                txn_id=txn_id,
                read_set=frozen,
                write_set=frozen,
                arrival_time=now_us,
                profile=self._profile,
                aborts=aborts,
            )
        return Transaction.read_only(
            txn_id, sorted(frozen), arrival_time=now_us, profile=self._profile
        )
