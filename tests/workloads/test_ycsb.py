"""Unit tests for the Google-YCSB workload."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import TxnKind
from repro.workloads import ycsb
from repro.workloads.google_trace import GoogleTraceConfig, SyntheticGoogleTrace
from repro.workloads.ycsb import GoogleYCSBWorkload, YCSBConfig


@pytest.fixture
def trace():
    config = GoogleTraceConfig(num_machines=4, duration_s=100, tick_s=5)
    return SyntheticGoogleTrace(config, DeterministicRNG(2))


@pytest.fixture
def workload(trace):
    config = YCSBConfig(num_keys=4000, num_partitions=4)
    return GoogleYCSBWorkload(config, trace, DeterministicRNG(3))


class TestConfig:
    def test_partition_size(self):
        assert YCSBConfig(num_keys=100, num_partitions=4).partition_size == 25

    def test_machines_must_match_partitions(self, trace):
        bad = YCSBConfig(num_keys=1000, num_partitions=8)
        with pytest.raises(ConfigurationError):
            GoogleYCSBWorkload(bad, trace, DeterministicRNG(1))

    def test_ratio_bounds(self):
        with pytest.raises(ConfigurationError):
            YCSBConfig(rw_ratio=1.5)


class TestTransactionMix:
    def test_keys_in_range_and_distinct(self, workload):
        for i in range(200):
            txn = workload.make_txn(i, 1e6)
            assert all(0 <= k < 4000 for k in txn.full_set)
            assert len(txn.full_set) == 2

    def test_read_write_split_roughly_half(self, workload):
        txns = [workload.make_txn(i, 1e6) for i in range(400)]
        read_only = sum(1 for t in txns if t.kind is TxnKind.READ_ONLY)
        assert 120 < read_only < 280

    def test_rw_txns_write_all_records(self, workload):
        txns = [workload.make_txn(i, 1e6) for i in range(100)]
        for txn in txns:
            if txn.kind is TxnKind.READ_WRITE:
                assert txn.write_set == txn.read_set

    def test_distributed_ratio_creates_cross_partition(
        self, trace, monkeypatch
    ):
        monkeypatch.setattr(ycsb, "DISTRIBUTED_RATIO", 1.0)
        config = YCSBConfig(num_keys=4000, num_partitions=4)
        workload = GoogleYCSBWorkload(config, trace, DeterministicRNG(5))
        size = config.partition_size
        cross = 0
        for i in range(200):
            txn = workload.make_txn(i, 1e6)
            partitions = {k // size for k in txn.full_set}
            if len(partitions) > 1:
                cross += 1
        assert cross > 80  # global keys usually land off-partition

    def test_zero_distributed_keeps_local(self, trace, monkeypatch):
        monkeypatch.setattr(ycsb, "DISTRIBUTED_RATIO", 0.0)
        config = YCSBConfig(num_keys=4000, num_partitions=4)
        workload = GoogleYCSBWorkload(config, trace, DeterministicRNG(5))
        size = config.partition_size
        for i in range(100):
            txn = workload.make_txn(i, 1e6)
            assert len({k // size for k in txn.full_set}) == 1

    def test_txn_length_distribution(self, trace):
        config = YCSBConfig(
            num_keys=4000, num_partitions=4,
            txn_len_mean=10.0, txn_len_std=3.0,
        )
        workload = GoogleYCSBWorkload(config, trace, DeterministicRNG(5))
        sizes = [workload.make_txn(i, 1e6).size for i in range(200)]
        mean = sum(sizes) / len(sizes)
        assert 8 < mean < 12
        assert min(sizes) >= 1

    def test_deterministic(self, trace):
        config = YCSBConfig(num_keys=4000, num_partitions=4)
        a = GoogleYCSBWorkload(config, trace, DeterministicRNG(9))
        b = GoogleYCSBWorkload(config, trace, DeterministicRNG(9))
        for i in range(50):
            ta, tb = a.make_txn(i, 2e6), b.make_txn(i, 2e6)
            assert ta.read_set == tb.read_set
            assert ta.kind == tb.kind

    def test_local_skew_follows_trace_weights(self, trace, monkeypatch):
        monkeypatch.setattr(ycsb, "DISTRIBUTED_RATIO", 0.0)
        config = YCSBConfig(num_keys=4000, num_partitions=4)
        workload = GoogleYCSBWorkload(config, trace, DeterministicRNG(5))
        size = config.partition_size
        counts = [0, 0, 0, 0]
        now = 50e6
        for i in range(1000):
            txn = workload.make_txn(i, now)
            counts[next(iter(txn.full_set)) // size] += 1
        weights = trace.weights_at(now)
        top_expected = int(weights.argmax())
        assert counts[top_expected] == max(counts)
