"""Unit + statistical tests for the Zipf samplers."""

import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.workloads.zipf import (
    _LAZY_BLOCK,
    MovingTwoSidedZipf,
    ZipfSampler,
    _LazyZipfCdf,
    _zipf_cdf_list,
)

ROOT = Path(__file__).resolve().parents[2]

#: (n, θ) of every materialized CDF the presets build: the multi-tenant
#: tenants (2,500 and 10,000 records at θ 0.9), the Google-YCSB
#: partitions (5,000 records at θ 0.7 and 0.8) and its moving global
#: hot spot (40,000 keys at θ 0.8).
PRESET_CDFS = ((2_500, 0.9), (10_000, 0.9), (5_000, 0.7), (5_000, 0.8),
               (40_000, 0.8))

#: numpy with its AVX-512 kernels switched off, where its ``power`` is
#: libm's (names a host lacks are ignored, so elsewhere this is a no-op).
LIBM_POWER_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

#: How far the pure-Python CDF may sit from numpy's when numpy uses its
#: AVX-512 ``power`` (1 ulp off libm on some weights, and a running sum
#: carries the difference on): at most 2 ulps measured with numpy 2.4.
AVX512_ULPS = 4

#: Prints, per (n, θ) in ``argv[1]``, how many entries of numpy's
#: full-array CDF differ from ``_zipf_cdf_list``.
COMPARE_WITH_NUMPY = """\
import json, sys
import numpy as np
from repro.workloads.zipf import _zipf_cdf_list
mismatches = []
for n, theta in json.loads(sys.argv[1]):
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-theta))
    cdf /= cdf[-1]
    ours = _zipf_cdf_list(n, theta)
    assert len(ours) == n
    mismatches.append(sum(a != b for a, b in zip(cdf.tolist(), ours)))
print(json.dumps(mismatches))
"""


def _numpy_cdf(n: int, theta: float) -> list[float]:
    import numpy as np

    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-theta))
    cdf /= cdf[-1]
    return cdf.tolist()


@pytest.fixture
def rng():
    return DeterministicRNG(77)


class TestZipfSampler:
    def test_range_and_determinism(self, rng):
        a = ZipfSampler(100, 0.9, DeterministicRNG(5))
        b = ZipfSampler(100, 0.9, DeterministicRNG(5))
        sa = [a.sample() for _ in range(200)]
        sb = [b.sample() for _ in range(200)]
        assert sa == sb
        assert all(0 <= s < 100 for s in sa)

    def test_skew_prefers_low_ranks(self, rng):
        sampler = ZipfSampler(1000, 0.9, rng)
        samples = [sampler.sample() for _ in range(3000)]
        head = sum(1 for s in samples if s < 100)
        assert head > len(samples) * 0.4

    def test_theta_zero_is_uniform_ish(self, rng):
        sampler = ZipfSampler(10, 0.0, rng)
        samples = [sampler.sample() for _ in range(5000)]
        from collections import Counter
        counts = Counter(samples)
        assert min(counts.values()) > 300

    def test_sample_distinct(self, rng):
        sampler = ZipfSampler(50, 0.9, rng)
        picks = sampler.sample_distinct(5)
        assert len(set(picks)) == 5

    def test_sample_distinct_overflow_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ZipfSampler(3, 0.9, rng).sample_distinct(4)

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 0.9, rng)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, -1.0, rng)


class TestCdfNumerics:
    def test_list_cdf_is_numpys_where_power_is_libm(self):
        env = dict(os.environ, **LIBM_POWER_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", COMPARE_WITH_NUMPY, json.dumps(PRESET_CDFS)],
            capture_output=True, text=True, env=env, check=True, cwd=ROOT,
        )
        assert json.loads(out.stdout) == [0] * len(PRESET_CDFS)

    @pytest.mark.parametrize("n,theta", PRESET_CDFS)
    def test_list_cdf_is_within_ulps_of_numpys(self, n, theta):
        ours = _zipf_cdf_list(n, theta)
        assert ours[-1] == 1.0
        for rank, (a, b) in enumerate(zip(ours, _numpy_cdf(n, theta))):
            assert abs(a - b) <= AVX512_ULPS * math.ulp(b), (rank, a, b)

    def test_lazy_cdf_locates_as_numpys_full_cdf(self):
        n, theta = 3 * _LAZY_BLOCK + 7, 0.8
        full = _numpy_cdf(n, theta)
        lazy = _LazyZipfCdf(n, theta)
        points = [0.0, 1.0]
        for end in (_LAZY_BLOCK, 2 * _LAZY_BLOCK, 3 * _LAZY_BLOCK, n):
            for edge in (full[end - 1], full[min(end, n - 1)]):
                points += [edge, math.nextafter(edge, 0.0),
                           math.nextafter(edge, 2.0)]
        draws = random.Random(7)
        points += [draws.random() for _ in range(10_000)]
        for u in points:
            assert lazy.locate(u) == bisect_left(full, u), u


class TestMovingTwoSidedZipf:
    def test_peak_sweeps_keyspace(self, rng):
        dist = MovingTwoSidedZipf(1000, 0.9, cycle_us=1000.0, rng=rng)
        assert dist.peak_at(0) == 0
        assert dist.peak_at(500.0) == 500
        assert dist.peak_at(1000.0) == 0  # wrapped

    def test_samples_cluster_near_peak(self, rng):
        dist = MovingTwoSidedZipf(10_000, 1.2, cycle_us=1e9, rng=rng)
        now = 0.25e9  # peak at 2500
        samples = [dist.sample(now) for _ in range(2000)]
        near = sum(1 for s in samples if abs(s - 2500) < 500)
        assert near > len(samples) * 0.5

    def test_wraparound_stays_in_range(self, rng):
        dist = MovingTwoSidedZipf(100, 0.5, cycle_us=10.0, rng=rng)
        for t in (0.0, 3.0, 7.0, 9.9):
            for _ in range(50):
                assert 0 <= dist.sample(t) < 100

    def test_phase_offsets_peak(self, rng):
        dist = MovingTwoSidedZipf(100, 0.9, cycle_us=100.0, rng=rng, phase=0.5)
        assert dist.peak_at(0) == 50

    def test_invalid_args(self, rng):
        with pytest.raises(ConfigurationError):
            MovingTwoSidedZipf(100, 0.9, cycle_us=0, rng=rng)
        with pytest.raises(ConfigurationError):
            MovingTwoSidedZipf(100, 0.9, cycle_us=10, rng=rng, phase=1.5)
