"""Deterministic randomness.

Every stochastic component (workload generators, trace synthesis, client
arrival processes) draws from a :class:`DeterministicRNG` derived from a
single experiment seed.  Two runs with the same seed produce bit-identical
transaction streams, which is what lets us assert determinism end to end:
same input ⇒ same routing ⇒ same final database state.
"""

from __future__ import annotations

import hashlib
import random
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from a root seed and a path of names.

    Uses SHA-256 over the textual path so the derivation is stable across
    Python versions and platforms (``hash()`` is salted per process and
    must never be used for this).
    """
    payload = repr((root_seed, *names)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRNG:
    """A named, forkable random stream.

    Wraps both :class:`random.Random` (for cheap scalar draws) and a
    :class:`numpy.random.Generator` (for vectorized trace synthesis)
    seeded from the same derivation, and exposes ``fork`` to create
    independent child streams without coupling draw order between
    components.
    """

    def __init__(self, root_seed: int, *path: object) -> None:
        self._root_seed = root_seed
        self._path = tuple(path)
        self.py = random.Random(derive_seed(root_seed, *path))

    @cached_property
    def np(self) -> "np.random.Generator":
        """The numpy stream, built on first use from the same seed.

        Most streams only ever draw scalars, so numpy is imported, and
        the generator seeded, the first time a component asks for it;
        the seed does not depend on when that happens.
        """
        import numpy as np

        seed = derive_seed(self._root_seed, *self._path)
        return np.random.default_rng(seed)

    def fork(self, *names: object) -> "DeterministicRNG":
        """Create an independent child stream identified by ``names``."""
        return DeterministicRNG(self._root_seed, *self._path, *names)

    # -- scalar conveniences -------------------------------------------------

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self.py.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.py.random()

    def choice(self, seq: Sequence):
        """Uniform choice from a non-empty sequence."""
        return self.py.choice(seq)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self.py.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate."""
        return self.py.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        return self.py.gauss(mu, sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRNG(root={self._root_seed}, path={self._path})"
