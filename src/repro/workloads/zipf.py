"""Zipfian key samplers.

Two shapes cover every workload in the paper:

* :class:`ZipfSampler` — classic Zipf over ``n`` items: item at rank r
  has probability ∝ 1/r^θ.  Used for within-partition skew (YCSB, the
  multi-tenant workload's θ=0.9 tenants).
* :class:`MovingTwoSidedZipf` — a two-sided Zipfian over the whole
  keyspace whose *peak drifts over time*, wrapping from the last key
  back to the first.  This models the paper's "active users around the
  world in 24 hours" global distribution for distributed transactions
  (Section 5.2.2).

CDFs are precomputed with numpy and shared across samplers through a
module-level cache, so creating one sampler per partition is cheap.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG


@lru_cache(maxsize=64)
def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """Cumulative distribution of Zipf(θ) over ranks 1..n."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


@lru_cache(maxsize=64)
def _zipf_cdf_list(n: int, theta: float) -> list[float]:
    """The same CDF as a plain list: ``bisect`` on a list beats a scalar
    ``np.searchsorted`` call by an order of magnitude, and ``tolist`` is
    exact, so the sampled sequence is bit-identical."""
    return _zipf_cdf(n, theta).tolist()


#: Keyspaces at or above this size use the block-lazy CDF; below it the
#: fully materialized list (the original fast path) is kept verbatim.
LAZY_CDF_THRESHOLD = 1 << 18

#: Ranks per lazily materialized CDF block (must divide work evenly; any
#: power of two works — 16384 floats ≈ 128 KB per cached block).
_LAZY_BLOCK = 1 << 14


class _LazyZipfCdf:
    """Zipf CDF over millions of ranks without materializing it.

    Stores only the *block-boundary* running sums (one float per
    ``_LAZY_BLOCK`` ranks) plus a tiny cache of recently materialized
    blocks.  A draw bisects the boundary list to pick a block, then
    bisects inside the (re)materialized block.

    Bit-identical to the materialized path by construction: block
    partial sums are computed with ``np.cumsum`` seeded by the previous
    block's carry *prepended to the array*, so every float addition
    happens in exactly the order of one full ``np.cumsum``; the
    normalizing division by the same total is elementwise and exact.
    Since every compared value is identical, every ``bisect`` lands on
    the identical rank.
    """

    __slots__ = ("n", "theta", "total", "_raw_bounds", "_bounds", "_blocks")

    def __init__(self, n: int, theta: float) -> None:
        self.n = n
        self.theta = theta
        raw_bounds: list[float] = []
        carry = 0.0
        for lo in range(0, n, _LAZY_BLOCK):
            chunk = self._raw_chunk(lo, min(lo + _LAZY_BLOCK, n), carry)
            carry = float(chunk[-1])
            raw_bounds.append(carry)
        self.total = carry
        self._raw_bounds = raw_bounds
        self._bounds = [b / carry for b in raw_bounds]
        self._blocks: dict[int, list[float]] = {}

    def _raw_chunk(self, lo: int, hi: int, carry: float) -> np.ndarray:
        """Running sums of ranks ``lo..hi-1`` continuing from ``carry``.

        ``np.cumsum`` accumulates strictly left to right, so prepending
        the carry reproduces the exact additions (and roundings) the
        full-array ``np.cumsum`` would have performed over this span.
        """
        ranks = np.arange(lo + 1, hi + 1, dtype=np.float64)
        weights = ranks ** (-self.theta)
        if carry:
            return np.cumsum(np.concatenate(([carry], weights)))[1:]
        return np.cumsum(weights)

    def _block(self, index: int) -> list[float]:
        block = self._blocks.get(index)
        if block is None:
            lo = index * _LAZY_BLOCK
            carry = self._raw_bounds[index - 1] if index else 0.0
            raw = self._raw_chunk(lo, min(lo + _LAZY_BLOCK, self.n), carry)
            block = (raw / self.total).tolist()
            if len(self._blocks) >= 8:
                self._blocks.pop(next(iter(self._blocks)))
            self._blocks[index] = block
        return block

    def locate(self, u: float) -> int:
        """The rank the materialized CDF's ``bisect_left`` would pick."""
        index = bisect_left(self._bounds, u)
        if index >= len(self._bounds):
            index = len(self._bounds) - 1
        return index * _LAZY_BLOCK + bisect_left(self._block(index), u)


@lru_cache(maxsize=8)
def _lazy_zipf_cdf(n: int, theta: float) -> _LazyZipfCdf:
    """Shared lazy CDFs (the block cache amortizes across samplers)."""
    return _LazyZipfCdf(n, theta)


class ZipfSampler:
    """Samples ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^θ."""

    def __init__(self, n: int, theta: float, rng: DeterministicRNG) -> None:
        if n < 1:
            raise ConfigurationError("Zipf needs at least one item")
        if theta < 0:
            raise ConfigurationError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._rng = rng
        # Closed-loop drivers call the sampler once per generated
        # transaction, so it sits on the end-to-end hot path; binding the
        # underlying ``random.Random.random`` skips two wrapper frames
        # per draw without touching the draw sequence.
        self._random = rng.py.random
        if n >= LAZY_CDF_THRESHOLD:
            # Million-key mode: block-lazy CDF, draw-identical to the
            # materialized list (see _LazyZipfCdf).  The instance-level
            # closure shadows ``sample`` so the small-n hot path below
            # stays branch-free and byte-identical.
            self._cdf_list = None
            locate = self._locate = _lazy_zipf_cdf(n, theta).locate
            random = self._random

            def sample() -> int:
                return locate(random())

            self.sample = sample  # type: ignore[method-assign]
        else:
            self._cdf_list = _zipf_cdf_list(n, theta)
            self._locate = partial(bisect_left, self._cdf_list)

    def sample(self) -> int:
        """One rank in [0, n); rank 0 is the hottest item."""
        return bisect_left(self._cdf_list, self._random())

    def sample_distinct(self, count: int) -> list[int]:
        """``count`` distinct ranks (count must be << n for efficiency)."""
        if count > self.n:
            raise ConfigurationError(
                f"cannot draw {count} distinct items from {self.n}"
            )
        locate = self._locate
        random = self._random
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            rank = locate(random())
            if rank not in seen:
                seen.add(rank)
                out.append(rank)
        return out


class MovingTwoSidedZipf:
    """Two-sided Zipfian over [0, n) with a time-drifting peak.

    The probability of key k at time t is ∝ 1/(d+1)^θ where d is the
    wrap-around distance between k and the current peak.  The peak moves
    linearly across the keyspace with period ``cycle_us``, repeating —
    mirroring the paper's global distribution whose peak travels "from
    the first to the last record" to simulate the sun moving over a
    worldwide user base.
    """

    def __init__(
        self,
        n: int,
        theta: float,
        cycle_us: float,
        rng: DeterministicRNG,
        phase: float = 0.0,
    ) -> None:
        if n < 1:
            raise ConfigurationError("keyspace must be non-empty")
        if cycle_us <= 0:
            raise ConfigurationError("cycle_us must be positive")
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError("phase must be in [0, 1)")
        self.n = n
        self.theta = theta
        self.cycle_us = cycle_us
        self.phase = phase
        self._rng = rng
        # Distance distribution: one-sided Zipf over [0, n); the sampled
        # distance is applied in a random direction around the peak.
        self._distance = ZipfSampler(n, theta, rng.fork("distance"))

    def peak_at(self, now_us: float) -> int:
        """The hottest key at simulated time ``now_us``."""
        fraction = (now_us / self.cycle_us + self.phase) % 1.0
        return int(fraction * self.n) % self.n

    def sample(self, now_us: float) -> int:
        """One key, skewed around the current peak (wraparound)."""
        distance = self._distance.sample()
        if self._rng.random() < 0.5:
            distance = -distance
        return (self.peak_at(now_us) + distance) % self.n
