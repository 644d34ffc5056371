"""Simulated cluster network.

Point-to-point messages between nodes with a fixed one-way latency plus a
bandwidth term for the payload.  The network also keeps the per-node byte
counters that back the paper's Figure 8 (network usage per transaction).

Messages between a node and itself are delivered with zero cost — Calvin
schedulers hand work to their local executors through memory, not the NIC.

Fault injection (:mod:`repro.faults`) hooks in at this layer: links can be
*blocked* (network partitions), lose messages with a seeded probability,
or add random latency jitter.  All probabilistic decisions draw from a
:class:`~repro.common.rng.DeterministicRNG` installed by the injector, so
a fault schedule is replayable bit for bit.  On top of the lossy
:meth:`send`, :meth:`send_reliable` layers timeout/retry with exponential
backoff plus receiver-side duplicate suppression — the delivery contract
the executor's record-carrying messages need to survive faults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.common.config import CostModel, RetryPolicy
from repro.common.errors import FaultInjectionError, TimeoutExceeded
from repro.common.types import NodeId
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.rng import DeterministicRNG


class Network:
    """Latency + bandwidth message fabric with byte accounting."""

    def __init__(self, kernel: Kernel, costs: CostModel) -> None:
        self.kernel = kernel
        self.costs = costs
        self.bytes_sent: dict[NodeId, int] = {}
        self.bytes_received: dict[NodeId, int] = {}
        self.messages_sent: dict[NodeId, int] = {}

        # -- fault state (all inert until repro.faults installs rules) ----
        self.fault_rng: "DeterministicRNG | None" = None
        self._blocked: dict[tuple[NodeId, NodeId], int] = {}
        self._loss_rules: dict[int, tuple[NodeId | None, NodeId | None, float]] = {}
        self._jitter_rules: dict[int, tuple[NodeId | None, NodeId | None, float]] = {}
        self._next_rule_id = 0
        self.messages_dropped = 0
        self.retries_sent = 0
        self.duplicates_suppressed = 0
        self.delivery_failures = 0
        self.reliable_in_flight = 0

    # ------------------------------------------------------------------
    # Fault-rule management (driven by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------

    def block_links(self, pairs: list[tuple[NodeId, NodeId]]) -> None:
        """Start dropping every message on the given directed links.

        Blocks stack: overlapping partitions must each be unblocked
        before the link carries traffic again.
        """
        for pair in pairs:
            self._blocked[pair] = self._blocked.get(pair, 0) + 1

    def unblock_links(self, pairs: list[tuple[NodeId, NodeId]]) -> None:
        """Undo one :meth:`block_links` call for the given links."""
        for pair in pairs:
            count = self._blocked.get(pair, 0)
            if count <= 1:
                self._blocked.pop(pair, None)
            else:
                self._blocked[pair] = count - 1

    def add_loss_rule(
        self,
        probability: float,
        src: NodeId | None = None,
        dst: NodeId | None = None,
    ) -> int:
        """Drop messages with ``probability`` on matching links.

        ``None`` for ``src``/``dst`` matches any node.  When several
        rules match one message, the highest probability applies.
        Returns a rule id for :meth:`remove_rule`.
        """
        if not 0.0 <= probability <= 1.0:
            raise FaultInjectionError(
                f"loss probability {probability} outside [0, 1]"
            )
        if probability > 0 and self.fault_rng is None:
            raise FaultInjectionError(
                "probabilistic loss requires a fault RNG "
                "(set network.fault_rng first)"
            )
        self._next_rule_id += 1
        self._loss_rules[self._next_rule_id] = (src, dst, probability)
        return self._next_rule_id

    def add_jitter_rule(
        self,
        max_extra_us: float,
        src: NodeId | None = None,
        dst: NodeId | None = None,
    ) -> int:
        """Add uniform [0, max_extra_us) latency to matching messages.

        Returns a rule id for :meth:`remove_rule`.  The largest matching
        rule applies.
        """
        if max_extra_us < 0:
            raise FaultInjectionError("max_extra_us must be >= 0")
        if max_extra_us > 0 and self.fault_rng is None:
            raise FaultInjectionError(
                "latency jitter requires a fault RNG "
                "(set network.fault_rng first)"
            )
        self._next_rule_id += 1
        self._jitter_rules[self._next_rule_id] = (src, dst, max_extra_us)
        return self._next_rule_id

    def remove_rule(self, rule_id: int) -> None:
        """Remove a loss or jitter rule by id (unknown ids are ignored)."""
        self._loss_rules.pop(rule_id, None)
        self._jitter_rules.pop(rule_id, None)

    def faults_active(self) -> bool:
        """Whether any fault rule is currently installed."""
        return bool(self._blocked or self._loss_rules or self._jitter_rules)

    @staticmethod
    def _rule_matches(
        rule: tuple[NodeId | None, NodeId | None, float],
        src: NodeId,
        dst: NodeId,
    ) -> bool:
        rule_src, rule_dst, _ = rule
        return (rule_src is None or rule_src == src) and (
            rule_dst is None or rule_dst == dst
        )

    def _fault_fate(self, src: NodeId, dst: NodeId) -> float | None:
        """Extra delay for a message, or ``None`` if it is dropped."""
        if (src, dst) in self._blocked:
            return None
        loss = 0.0
        for rule in self._loss_rules.values():
            if self._rule_matches(rule, src, dst):
                loss = max(loss, rule[2])
        if loss > 0.0:
            assert self.fault_rng is not None  # enforced at rule install
            if self.fault_rng.random() < loss:
                return None
        jitter = 0.0
        for rule in self._jitter_rules.values():
            if self._rule_matches(rule, src, dst):
                jitter = max(jitter, rule[2])
        if jitter > 0.0:
            assert self.fault_rng is not None
            return self.fault_rng.random() * jitter
        return 0.0

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------

    def send(
        self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: int,
        deliver: Callable[[], Any],
    ) -> None:
        """Deliver ``deliver()`` at ``dst`` after the simulated transfer.

        ``payload_bytes`` should include record payloads; small control
        messages can pass 0 and still pay the latency term.  Under
        active fault rules the message may be silently dropped (counted
        in ``messages_dropped``) — callers that must not lose messages
        use :meth:`send_reliable`.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if src == dst:
            self.kernel.call_soon(deliver)
            return
        self.bytes_sent[src] = self.bytes_sent.get(src, 0) + payload_bytes
        self.messages_sent[src] = self.messages_sent.get(src, 0) + 1
        extra = self._fault_fate(src, dst)
        if extra is None:
            self.messages_dropped += 1
            return
        self.bytes_received[dst] = self.bytes_received.get(dst, 0) + payload_bytes
        # Deliveries are never cancelled; skip the handle allocation.
        self.kernel.call_later_unhandled(
            self.costs.transfer_us(payload_bytes) + extra, deliver
        )

    def send_reliable(
        self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: int,
        deliver: Callable[[], Any],
        policy: RetryPolicy,
        on_failed: Callable[[], Any] | None = None,
        describe: str = "message",
    ) -> None:
        """At-most-once delivery with timeout/retry and backoff.

        The message is re-sent whenever attempt ``n``'s timeout
        (``policy.delay_us(n)``) expires without delivery; duplicates
        created by a retry racing a merely-slow original are suppressed
        at the receiver, so ``deliver`` runs at most once.  After
        ``policy.max_attempts`` sends the message is declared dead:
        ``on_failed`` is invoked if given, otherwise
        :class:`TimeoutExceeded` is raised.  On a fault-free network the
        first attempt succeeds and timing is identical to :meth:`send`.
        """
        if src == dst:
            self.kernel.call_soon(deliver)
            return
        if not (self._blocked or self._loss_rules or self._jitter_rules):
            transfer = self.costs.transfer_us(payload_bytes)
            if policy.delay_us(0) >= transfer:
                # Fault-free fast path: nothing can drop or delay the
                # message (fates are decided at send time) and the first
                # timeout cannot race the transfer, so the first attempt
                # always lands and the timeout timer would be cancelled
                # at delivery.  Skip the retry machinery entirely —
                # delivery timing is identical, and the dropped timer
                # entries never ran anything.
                self.reliable_in_flight += 1
                self.bytes_sent[src] = (
                    self.bytes_sent.get(src, 0) + payload_bytes
                )
                self.messages_sent[src] = self.messages_sent.get(src, 0) + 1
                self.bytes_received[dst] = (
                    self.bytes_received.get(dst, 0) + payload_bytes
                )
                self.kernel.call_later_unhandled(
                    transfer, self._deliver_reliable_fast, deliver
                )
                return
        self.reliable_in_flight += 1
        delivered = [False]
        # The pending timeout/retry timer for the current attempt; on
        # delivery it is cancelled so the common (fault-free) case does
        # not leave a dead backoff timer buried in the kernel heap.
        timer: list = [None]

        def receive() -> None:
            if delivered[0]:
                self.duplicates_suppressed += 1
                return
            delivered[0] = True
            self.reliable_in_flight -= 1
            if timer[0] is not None:
                timer[0].cancel()
                timer[0] = None
            deliver()

        def give_up() -> None:
            if delivered[0]:
                return
            delivered[0] = True
            self.reliable_in_flight -= 1
            self.delivery_failures += 1
            if on_failed is not None:
                on_failed()
            else:
                raise TimeoutExceeded(
                    f"{describe} {src}->{dst}", policy.max_attempts
                )

        def attempt(n: int) -> None:
            if delivered[0]:
                return
            if n > 0:
                self.retries_sent += 1
            self.send(src, dst, payload_bytes, receive)
            if n + 1 >= policy.max_attempts:
                timer[0] = self.kernel.call_later(policy.delay_us(n), give_up)
            else:
                timer[0] = self.kernel.call_later(
                    policy.delay_us(n), attempt, n + 1
                )

        attempt(0)

    def _deliver_reliable_fast(self, deliver: Callable[[], Any]) -> None:
        self.reliable_in_flight -= 1
        deliver()

    def total_bytes(self) -> int:
        """Total bytes that crossed the wire so far."""
        return sum(self.bytes_sent.values())
