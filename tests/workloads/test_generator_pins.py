"""Byte pins for each workload generator at a fixed seed.

A preset result digest also moves when a generator constant is
mistyped, but it only says which figure moved.  These pins name the
generator: each hashes the first 500 transactions (id, sorted read and
write sets, profile bytes, abort flag) of one generator with its default
shape, or the load matrix of the default synthetic Google trace.
"""

import hashlib

import pytest

from repro.common.rng import DeterministicRNG
from repro.workloads.google_trace import GoogleTraceConfig, SyntheticGoogleTrace
from repro.workloads.hotrange import HotRangeConfig, HotRangeWorkload
from repro.workloads.multitenant import MultiTenantConfig, MultiTenantWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.ycsb import GoogleYCSBWorkload, YCSBConfig

NUM_TXNS = 500


def _trace() -> SyntheticGoogleTrace:
    return SyntheticGoogleTrace(GoogleTraceConfig(), DeterministicRNG(11))


def _generators():
    return {
        # 4 s apart: the 500 transactions sweep the whole 2160 s trace.
        "ycsb": (
            GoogleYCSBWorkload(YCSBConfig(), _trace(), DeterministicRNG(12)),
            4e6,
        ),
        "tpcc": (TPCCWorkload(TPCCConfig(), DeterministicRNG(13)), 1e4),
        # 2 s apart: four hot-node rotations at a 250 s period.
        "multitenant": (
            MultiTenantWorkload(
                MultiTenantConfig(rotation_interval_us=250e6),
                DeterministicRNG(14),
            ),
            2e6,
        ),
        # 4 ms apart: the run crosses the 1 s warm/measured boundary.
        "hotrange": (
            HotRangeWorkload(HotRangeConfig(), DeterministicRNG(15)),
            4e3,
        ),
    }


def _digest(workload, step_us: float) -> str:
    h = hashlib.sha256()
    for i in range(NUM_TXNS):
        txn = workload.make_txn(i, i * step_us)
        h.update(
            repr(
                (
                    txn.txn_id,
                    sorted(txn.read_set),
                    sorted(txn.write_set),
                    txn.profile.record_bytes,
                    txn.aborts,
                )
            ).encode()
        )
    return h.hexdigest()


GENERATOR_DIGESTS = {
    "ycsb": (
        "3b7dfd73d63252bc67eceaeef1b3c813750d11ca4c5dbfd868d96efb9076f39d"
    ),
    "tpcc": (
        "52c090a9fc6c0a18da79f688cda0598fccac895cc04e0375293b6e87adb2445b"
    ),
    "multitenant": (
        "fa4d900f6ed9856bdada980f56f23f2cd815788d2eb3d0a06f9b4be4630f9fba"
    ),
    "hotrange": (
        "97615e301eff51a52abccbc49fb7263ca0f1d8da58f79f4746080a7d840afe38"
    ),
}

GOOGLE_TRACE_LOADS_DIGEST = (
    "585f6910ff193f3c2c928bf55659e38e1b23dc816773fbe2f7bcd279dd6dd66f"
)


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_digest(name):
    workload, step_us = _generators()[name]
    assert _digest(workload, step_us) == GENERATOR_DIGESTS[name]


def test_google_trace_loads_digest():
    loads = _trace().loads
    assert loads.shape == (20, 144)
    digest = hashlib.sha256(loads.tobytes()).hexdigest()
    assert digest == GOOGLE_TRACE_LOADS_DIGEST
