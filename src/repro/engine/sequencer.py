"""The sequencing layer: client requests → totally ordered batches.

Models Calvin's sequencer tier (Figure 4(a)): requests accumulate for one
*epoch*, then the epoch's requests become a batch, the batch is assigned
the next global epoch number (the total order), and — after a fixed
ordering latency standing in for the Zab/Paxos round — the batch is
delivered to every scheduler replica at once.

System transactions (topology changes, migration chunks) enter the same
stream via :meth:`submit_system`, giving them the total-order position
Section 3.3 requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.config import CostModel, EngineConfig
from repro.common.errors import SimulationError
from repro.common.types import Batch, Transaction
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class Sequencer:
    """Epoch-based batching with a fixed total-ordering latency."""

    def __init__(
        self,
        kernel: Kernel,
        engine_config: EngineConfig,
        costs: CostModel,
        deliver: Callable[[Batch], None],
        tracer: "Tracer | None" = None,
    ) -> None:
        self.kernel = kernel
        self.config = engine_config
        self.costs = costs
        self.deliver = deliver
        self.tracer = tracer
        self._pending: list[Transaction] = []
        self._priority: list[Transaction] = []
        self._in_flight: list[tuple[float, Batch]] = []
        self._epoch = 0
        self.submitted = 0
        #: simulated time of the next batch cut — the epoch-slaving hook
        #: wall-clock serving uses to advance exactly one epoch per tick.
        self.next_cut_at = kernel.now + engine_config.epoch_us
        kernel.call_later(engine_config.epoch_us, self._cut_batch)

    def submit(self, txn: Transaction) -> None:
        """Enqueue a client transaction for the next batch."""
        self._pending.append(txn)
        self.submitted += 1

    def submit_system(self, txn: Transaction) -> None:
        """Enqueue a system transaction at the *front* of the next batch.

        Topology markers must precede the user transactions they govern
        so every scheduler replica switches topology at the same point in
        the total order.
        """
        self._priority.append(txn)
        self.submitted += 1

    @property
    def backlog(self) -> int:
        """Transactions accepted but not yet sequenced."""
        return len(self._pending) + len(self._priority)

    @property
    def last_assigned_epoch(self) -> int:
        """Highest epoch number handed out so far."""
        return self._epoch

    def backlog_snapshot(self) -> tuple[list[Transaction], list[Transaction]]:
        """Copies of the (priority, pending) queues.

        The accepted-but-unsequenced backlog lives in the ordering tier
        (Zab keeps it durable in the real system), so crash recovery
        captures it and resubmits it to the restarted cluster.
        """
        return list(self._priority), list(self._pending)

    def sequenced_in_flight(self) -> list[tuple[float, Batch]]:
        """``(cut_time, batch)`` for batches cut but not yet delivered.

        These batches already hold their total-order position (the Zab
        round assigned it at the cut), so a crash during the ordering
        latency must not lose them — recovery re-delivers them after
        replaying the command log.
        """
        return list(self._in_flight)

    def restore_epoch(self, epoch: int) -> None:
        """Fast-forward the epoch counter (a crash's survivor).

        A recovered cluster or a promoted replica must continue the
        global epoch numbering where the dead cluster's durable state
        left off, or epoch-ordered delivery would see collisions.
        """
        if epoch < self._epoch:
            raise SimulationError(
                f"cannot rewind sequencer epoch {self._epoch} to {epoch}"
            )
        self._epoch = epoch

    def _cut_batch(self) -> None:
        capacity = self.config.max_batch_size
        take_priority = self._priority[:capacity]
        self._priority = self._priority[len(take_priority):]
        room = capacity - len(take_priority)
        take_pending = self._pending[:room]
        self._pending = self._pending[len(take_pending):]

        txns = take_priority + take_pending
        if txns:
            self._epoch += 1
            batch = Batch(epoch=self._epoch, txns=txns)
            self._in_flight.append((self.kernel.now, batch))
            self.kernel.call_later(
                self.costs.sequencer_latency_us, self._deliver_ordered, batch
            )
            tracer = self.tracer
            if tracer is not None:
                tracer.batch_cut(self._epoch, len(txns), self.backlog)
            digest = self.kernel.digest
            if digest is not None:
                # Batch composition *and order* are the total-order input
                # everything downstream depends on — fold the ids.
                digest.note("seq.cut", self._epoch, batch.ids())
        self.next_cut_at = self.kernel.now + self.config.epoch_us
        self.kernel.call_later(self.config.epoch_us, self._cut_batch)

    def _deliver_ordered(self, batch: Batch) -> None:
        # The ordering latency is constant, so batches leave in-flight in
        # FIFO order.  ``deliver`` is looked up late so wrappers installed
        # after construction (replication tees) still apply.
        self._in_flight = [
            (t, b) for t, b in self._in_flight if b is not batch
        ]
        tracer = self.tracer
        if tracer is not None:
            tracer.batch_delivered(batch.epoch, len(batch))
        digest = self.kernel.digest
        if digest is not None:
            digest.note("seq.deliver", batch.epoch, len(batch))
        self.deliver(batch)
