"""Client drivers: how transactions reach the sequencer.

Two arrival models, matching the paper's experiments:

* :class:`OpenLoopDriver` — transactions arrive at a (possibly
  time-varying) offered rate regardless of completions.  Used for the
  Google-trace emulations, where the replayed load drives the system
  and throughput tracks the offered curve until capacity saturates.
* :class:`ClosedLoopDriver` — N clients each keep exactly one request
  outstanding (the paper's TPC-C and multi-tenant experiments use 4000
  and 800 closed-loop clients respectively).

Both drivers draw *only* from their own deterministic RNG fork, so a
workload's transaction stream is a pure function of (seed, time).
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.engine.cluster import Cluster


class WorkloadGenerator(Protocol):
    """Anything that can mint the next transaction for a client."""

    def make_txn(self, txn_id: int, now_us: float) -> Transaction:
        """Build one transaction arriving at simulated time ``now_us``."""
        ...  # pragma: no cover - protocol


RateFn = Callable[[float], float]


class OpenLoopDriver:
    """Poisson arrivals at ``rate_per_s`` (a float or a function of time)."""

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadGenerator,
        rate_per_s: float | RateFn,
        rng: DeterministicRNG,
        stop_us: float,
    ) -> None:
        if stop_us <= 0:
            raise ConfigurationError("stop_us must be positive")
        self.cluster = cluster
        self.workload = workload
        self.stop_us = stop_us
        self._rng = rng.fork("open-loop")
        if callable(rate_per_s):
            self._rate_fn: RateFn = rate_per_s
        else:
            fixed = float(rate_per_s)
            if fixed <= 0:
                raise ConfigurationError("rate must be positive")
            self._rate_fn = lambda _now: fixed
        self.submitted = 0

    def start(self) -> None:
        """Begin generating arrivals."""
        self.cluster.kernel.call_soon(self._next)

    def _next(self) -> None:
        """Draw the gap to the next arrival, or pause while the rate is 0."""
        kernel = self.cluster.kernel
        if kernel.now >= self.stop_us:
            return
        rate = self._rate_fn(kernel.now)
        if rate <= 0:
            # Idle period: re-check after a short pause.
            kernel.call_later_unhandled(10_000.0, self._next)
            return
        gap_us = self._rng.expovariate(rate / 1e6)
        kernel.call_later_unhandled(gap_us, self._arrive)

    def _arrive(self) -> None:
        kernel = self.cluster.kernel
        if kernel.now >= self.stop_us:
            return
        txn = self.workload.make_txn(self.cluster.next_txn_id(), kernel.now)
        self.cluster.submit(txn)
        self.submitted += 1
        self._next()


class ClosedLoopDriver:
    """``num_clients`` clients, each with one outstanding request."""

    def __init__(
        self,
        cluster: Cluster,
        workload: WorkloadGenerator,
        num_clients: int,
        stop_us: float,
    ) -> None:
        if num_clients < 1:
            raise ConfigurationError("need at least one client")
        if stop_us <= 0:
            raise ConfigurationError("stop_us must be positive")
        self.cluster = cluster
        self.workload = workload
        self.num_clients = num_clients
        self.stop_us = stop_us
        self.submitted = 0

    def start(self) -> None:
        """Issue every client's first request."""
        for _client in range(self.num_clients):
            self._issue()

    def _issue(self, _committed=None) -> None:
        """Issue one request; also each client's commit callback, so a
        client resubmits the instant its request commits."""
        kernel = self.cluster.kernel
        if kernel.now >= self.stop_us:
            return
        txn = self.workload.make_txn(self.cluster.next_txn_id(), kernel.now)
        self.submitted += 1
        self.cluster.submit(txn, on_commit=self._issue)
