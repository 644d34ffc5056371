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

Half the transactions are distributed and, by default, half are
read-write (the paper's 50 % mixes).  Transaction length is fixed at 2
records, or sampled from a normal distribution for the Figure 9
transaction-length study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import ExecutionProfile, Transaction
from repro.workloads.google_trace import SyntheticGoogleTrace
from repro.workloads.zipf import MovingTwoSidedZipf, ZipfSampler

# Section 5.2.2's fixed mix: records per transaction, the share of
# distributed transactions, the skew of the global moving hot spot, and
# the record size every transfer is charged for.
RECORDS_PER_TXN = 2
DISTRIBUTED_RATIO = 0.5
GLOBAL_THETA = 0.8
RECORD_BYTES = 1024


@dataclass(frozen=True, slots=True)
class YCSBConfig:
    """Knobs of the Google-YCSB workload."""

    num_keys: int = 200_000
    """Total records (the paper's 200 M, downscaled)."""

    num_partitions: int = 20
    txn_len_mean: float | None = None
    """When set (with ``txn_len_std``), transaction length is sampled
    from a normal distribution — the Figure 9 study."""

    txn_len_std: float = 0.0
    rw_ratio: float = 0.5
    zipf_theta: float = 0.7
    global_cycle_us: float = 720e6
    """Period of the global hot spot's sweep (the paper's simulated
    24-hour cycle: a third of the 2160 s emulation)."""

    def __post_init__(self) -> None:
        if self.num_keys < self.num_partitions:
            raise ConfigurationError("need at least one key per partition")
        if not 0 <= self.rw_ratio <= 1:
            raise ConfigurationError("rw_ratio must be in [0,1]")

    @property
    def partition_size(self) -> int:
        return self.num_keys // self.num_partitions


class GoogleYCSBWorkload:
    """Transaction factory driven by a synthetic Google trace."""

    record_bytes = RECORD_BYTES

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
            GLOBAL_THETA,
            config.global_cycle_us,
            self._rng.fork("global"),
        )
        self._profile = ExecutionProfile(record_bytes=RECORD_BYTES)

    # ------------------------------------------------------------------

    def _txn_length(self) -> int:
        cfg = self.config
        if cfg.txn_len_mean is None:
            return RECORDS_PER_TXN
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
        distributed = self._rng.random() < DISTRIBUTED_RATIO
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
        if read_write:
            return Transaction(
                txn_id=txn_id,
                read_set=frozen,
                write_set=frozen,
                arrival_time=now_us,
                profile=self._profile,
            )
        return Transaction.read_only(
            txn_id, sorted(frozen), arrival_time=now_us, profile=self._profile
        )
