"""A server node: storage, worker pool, and resource accounting.

Workers model the node's executor threads as a FIFO task queue: each
submitted task is a pure CPU burst with a completion callback.  Blocking
waits (locks, remote data) happen *outside* the pool — a transaction
waiting for remote reads parks without occupying a worker, as in Calvin's
event-driven executors, so stalls propagate through the lock queues (the
clogging the paper analyses) rather than through artificial thread
starvation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.common.config import ClusterConfig
from repro.common.errors import SimulationError
from repro.common.types import NodeId
from repro.sim.kernel import Kernel
from repro.sim.stats import WindowedRate
from repro.storage.store import RecordStore, ReplicaStore


class _Task:
    __slots__ = ("cpu_us", "done")

    def __init__(self, cpu_us: float, done: Callable[[], None]) -> None:
        self.cpu_us = cpu_us
        self.done = done


class WorkerPool:
    """FIFO pool of ``num_workers`` CPU servers on one node.

    Implemented as a counter-based callback scheduler rather than
    generator processes: a task that finds a free server schedules its
    completion timer directly, and each completion starts the next
    queued task.  This keeps one kernel timer per task (the burst
    itself) with no wake events or generator resumptions in between.
    """

    def __init__(
        self,
        kernel: Kernel,
        node_id: NodeId,
        num_workers: int,
        busy_window_us: float,
    ) -> None:
        if num_workers < 1:
            raise SimulationError("a node needs at least one worker")
        self.kernel = kernel
        self.node_id = node_id
        self.num_workers = num_workers
        self._tasks: deque[_Task] = deque()
        self._busy_workers = 0
        self.busy_us_total = 0.0
        self.busy_rate = WindowedRate(f"busy:{node_id}", busy_window_us)
        self.slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Scale every subsequent CPU burst by ``factor`` (>= 1).

        Models a straggler node (CPU contention, thermal throttling):
        tasks take ``factor`` times longer from the moment they start
        executing.  Bursts already in progress finish at their original
        speed; ``factor`` 1.0 restores normal service.
        """
        if factor < 1.0:
            raise SimulationError(f"slowdown factor {factor} must be >= 1")
        self.slowdown = factor

    def submit(self, cpu_us: float, done: Callable[[], None]) -> None:
        """Queue a CPU burst; ``done`` fires when it finishes."""
        if cpu_us < 0:
            raise SimulationError("task CPU time must be >= 0")
        if self._busy_workers < self.num_workers:
            self._busy_workers += 1
            # Slowdown is sampled when the burst starts, so a straggler
            # window stretches exactly the work that ran inside it.
            cost = cpu_us * self.slowdown
            self.kernel.call_later_unhandled(cost, self._finish, cost, done)
        else:
            self._tasks.append(_Task(cpu_us, done))

    def charge_background_cpu(self, cpu_us: float) -> None:
        """Account CPU consumed outside the worker pool (scheduler work).

        Routing runs in the scheduler thread, not an executor worker
        (Section 3.2.4), but it still shows up in the node's CPU usage —
        Figure 8 includes it.
        """
        if cpu_us < 0:
            raise SimulationError("background CPU must be >= 0")
        self.busy_us_total += cpu_us
        self.busy_rate.record(self.kernel.now, cpu_us)

    def _finish(self, cost: float, done: Callable[[], None]) -> None:
        self.busy_us_total += cost
        self.busy_rate.record(self.kernel.now, cost)
        done()
        tasks = self._tasks
        if tasks:
            task = tasks.popleft()
            next_cost = task.cpu_us * self.slowdown
            self.kernel.call_later_unhandled(
                next_cost, self._finish, next_cost, task.done
            )
        else:
            self._busy_workers -= 1

    def clear(self) -> None:
        """Drop queued bursts unrun (a closed cluster's, like the lock
        manager's :meth:`~repro.engine.locks.LockManager.clear`)."""
        self._tasks.clear()

    def queued(self) -> int:
        """Tasks waiting for a worker (diagnostics)."""
        return len(self._tasks)


class Node:
    """One simulated server: store, replica side-store, workers, counters."""

    def __init__(
        self,
        kernel: Kernel,
        node_id: NodeId,
        config: ClusterConfig,
        stats_window_us: float,
    ) -> None:
        self.kernel = kernel
        self.node_id = node_id
        self.config = config
        self.store = RecordStore(node_id)
        # Read-replica side-store: populated only by sequenced install
        # transactions, never hashed into state fingerprints.
        self.replicas = ReplicaStore(node_id)
        self.workers = WorkerPool(
            kernel,
            node_id,
            config.engine.workers_per_node,
            busy_window_us=stats_window_us,
        )
        self.commits = 0
        self.records_migrated_in = 0
        self.records_migrated_out = 0

    def load_snapshot(self) -> dict[str, float]:
        """Point-in-time load numbers, sampled per batch when tracing."""
        return {
            "queued": self.workers.queued(),
            "records": len(self.store),
            "busy_us": self.workers.busy_us_total,
            "commits": self.commits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, records={len(self.store)}, "
            f"commits={self.commits})"
        )
