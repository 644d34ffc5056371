"""Fault plans: declarative schedules of injected failures.

A :class:`FaultPlan` is a value object — a tuple of fault events, each a
frozen dataclass naming *when* the fault starts, *how long* it lasts, and
*what* it hits.  Plans are interpreted by
:class:`repro.faults.injector.FaultInjector` (windowed faults: partitions,
loss, jitter, stragglers) and by the chaos harness
(:mod:`repro.faults.chaos`), which handles a :class:`CrashFault` by
segmenting the run at the crash instant and recovering through
:func:`repro.engine.recovery.recover_from_crash` — or, for its
:class:`FailoverFault` kind, by promoting a WAN replica through
:func:`repro.engine.recovery.promote_replica`.

``FaultPlan.random`` draws a bounded random plan from a
:class:`DeterministicRNG`, so a whole chaos campaign is reproducible from
one root seed.  Randomized windowed faults are bounded well under the
engine's retry horizon (:data:`repro.engine.executor.RETRY_POLICY`, ~8
simulated seconds), so every dropped message is eventually retried through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import FaultInjectionError
from repro.common.rng import DeterministicRNG
from repro.common.types import NodeId


@dataclass(frozen=True, slots=True)
class CrashFault:
    """The execution tier crashes at ``at_us`` and recovers by replay."""

    at_us: float

    def __post_init__(self) -> None:
        if self.at_us <= 0:
            raise FaultInjectionError("crash time must be > 0")


@dataclass(frozen=True, slots=True)
class FailoverFault(CrashFault):
    """The primary site is lost at ``at_us`` and a WAN replica, fed the
    same ordered input, takes over (§2.1, Figure 4)."""


@dataclass(frozen=True, slots=True)
class PartitionFault:
    """A transient network partition between node groups.

    While active, every message between nodes in *different* groups is
    dropped (messages within a group flow normally).  Nodes in no group
    are unaffected.
    """

    start_us: float
    duration_us: float
    groups: tuple[tuple[NodeId, ...], ...]

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)
        if len(self.groups) < 2:
            raise FaultInjectionError("a partition needs >= 2 groups")
        seen: set[NodeId] = set()
        for group in self.groups:
            if not group:
                raise FaultInjectionError("empty partition group")
            for node in group:
                if node in seen:
                    raise FaultInjectionError(
                        f"node {node} in multiple partition groups"
                    )
                seen.add(node)

    def severed_links(self) -> list[tuple[NodeId, NodeId]]:
        """All directed cross-group links the partition cuts."""
        pairs: list[tuple[NodeId, NodeId]] = []
        for i, group_a in enumerate(self.groups):
            for j, group_b in enumerate(self.groups):
                if i == j:
                    continue
                pairs.extend((a, b) for a in group_a for b in group_b)
        return pairs


@dataclass(frozen=True, slots=True)
class LinkLossFault:
    """Probabilistic message loss on matching links while active.

    ``src``/``dst`` of ``None`` match any sender/receiver.
    """

    start_us: float
    duration_us: float
    probability: float
    src: NodeId | None = None
    dst: NodeId | None = None

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError("loss probability must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class JitterFault:
    """Extra uniform-random latency on matching links while active."""

    start_us: float
    duration_us: float
    max_extra_us: float
    src: NodeId | None = None
    dst: NodeId | None = None

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)
        if self.max_extra_us < 0:
            raise FaultInjectionError("max_extra_us must be >= 0")


@dataclass(frozen=True, slots=True)
class StragglerFault:
    """One node's executors run ``slowdown``x slower while active."""

    start_us: float
    duration_us: float
    node: NodeId
    slowdown: float

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)
        if self.slowdown < 1.0:
            raise FaultInjectionError("slowdown must be >= 1")


#: Distortion modes a :class:`ForecastFault` can apply to predictions.
FORECAST_FAULT_KINDS = (
    "horizon_truncation",
    "spike_dropout",
    "magnitude_error",
    "stale_window",
)


@dataclass(frozen=True, slots=True)
class ForecastFault:
    """Degrade the router's forecast (not the cluster) while active.

    Interpreted by :class:`repro.faults.forecast.FaultyForecaster` via
    the router's ``forecast_fault_sink``; clusters whose router has no
    forecaster ignore the window (traced, but a no-op).  ``severity``
    scales the distortion: the fraction of horizon truncated, the
    per-key corruption probability, or the staleness lag.
    """

    start_us: float
    duration_us: float
    kind: str
    severity: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)
        if self.kind not in FORECAST_FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown forecast fault kind {self.kind!r}; "
                f"expected one of {FORECAST_FAULT_KINDS}"
            )
        if not 0.0 < self.severity <= 1.0:
            raise FaultInjectionError("severity must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class ReplicaOutageFault:
    """Mark one node's replica side-store unusable while active.

    Interpreted by the replication router's ``replica_fault_sink``: the
    replica directory excludes the node from every valid-holder set, so
    reads that would have been replica-served there fall back to the
    primary (or another valid holder) — deterministically, since the
    outage toggles on sequenced epoch boundaries observed at routing.
    Clusters without a replication router ignore the window (traced,
    but a no-op).  Primary data on the node is unaffected.
    """

    start_us: float
    duration_us: float
    node: NodeId

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.duration_us)


def _check_window(start_us: float, duration_us: float) -> None:
    if start_us < 0:
        raise FaultInjectionError("fault start must be >= 0")
    if duration_us <= 0:
        raise FaultInjectionError("fault duration must be > 0")


ScheduledFault = (
    PartitionFault | LinkLossFault | JitterFault | StragglerFault
    | ForecastFault | ReplicaOutageFault
)
FaultEvent = CrashFault | ScheduledFault


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable schedule of fault events for one run."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def crashes(self) -> list[CrashFault]:
        return [e for e in self.events if isinstance(e, CrashFault)]

    def scheduled(self) -> list[ScheduledFault]:
        """The windowed (non-crash) faults, in start order."""
        windowed = [e for e in self.events if not isinstance(e, CrashFault)]
        return sorted(windowed, key=lambda e: (e.start_us, e.duration_us))

    def validate(self, num_nodes: int) -> None:
        """Check the plan against a cluster of ``num_nodes`` nodes.

        At most one crash (of either kind) is allowed per plan: the crash
        model replaces the *whole* execution tier, so a second crash is
        just a second plan applied to the survivor.
        """
        if len(self.crashes()) > 1:
            raise FaultInjectionError("at most one crash per plan")
        for event in self.events:
            for node in _nodes_of(event):
                if not 0 <= node < num_nodes:
                    raise FaultInjectionError(
                        f"fault references node {node}; cluster has "
                        f"{num_nodes}"
                    )

    @staticmethod
    def random(
        rng: DeterministicRNG,
        num_nodes: int,
        horizon_us: float,
        crash_probability: float = 0.35,
        max_windowed: int = 4,
        max_window_us: float = 1_000_000.0,
        forecast_probability: float = 0.0,
    ) -> "FaultPlan":
        """Draw a bounded random plan over ``[0, horizon_us]``.

        Windows are capped at ``max_window_us`` (default 1 simulated
        second), far below the engine's retry horizon, so partitions and
        loss bursts always heal before reliable delivery gives up.  The
        plan always contains at least one event.
        """
        if num_nodes < 2:
            raise FaultInjectionError("chaos needs >= 2 nodes")
        if horizon_us <= 0:
            raise FaultInjectionError("horizon must be > 0")
        events: list[FaultEvent] = []
        if rng.random() < crash_probability:
            # Keep the crash inside the meaty middle of the run so both
            # the pre-crash and post-recovery segments do real work.
            events.append(
                CrashFault(at_us=horizon_us * (0.25 + 0.5 * rng.random()))
            )
        num_windowed = rng.randint(0 if events else 1, max_windowed)
        for _ in range(num_windowed):
            start = rng.random() * horizon_us
            duration = max_window_us * (0.1 + 0.9 * rng.random())
            kind = rng.randint(0, 3)
            if kind == 0:
                cut = rng.randint(1, num_nodes - 1)
                nodes = list(range(num_nodes))
                rng.shuffle(nodes)
                events.append(
                    PartitionFault(
                        start_us=start,
                        duration_us=duration,
                        groups=(tuple(nodes[:cut]), tuple(nodes[cut:])),
                    )
                )
            elif kind == 1:
                events.append(
                    LinkLossFault(
                        start_us=start,
                        duration_us=duration,
                        probability=0.1 + 0.6 * rng.random(),
                    )
                )
            elif kind == 2:
                events.append(
                    JitterFault(
                        start_us=start,
                        duration_us=duration,
                        max_extra_us=100.0 + 2_000.0 * rng.random(),
                    )
                )
            else:
                events.append(
                    StragglerFault(
                        start_us=start,
                        duration_us=duration,
                        node=rng.randint(0, num_nodes - 1),
                        slowdown=2.0 + 6.0 * rng.random(),
                    )
                )
        # Short-circuit keeps the draw sequence (and thus every existing
        # randomized chaos plan) unchanged when the knob is off.
        if forecast_probability > 0 and rng.random() < forecast_probability:
            events.append(
                ForecastFault(
                    start_us=rng.random() * horizon_us,
                    duration_us=max_window_us * (0.1 + 0.9 * rng.random()),
                    kind=rng.choice(FORECAST_FAULT_KINDS),
                    severity=0.2 + 0.8 * rng.random(),
                )
            )
        plan = FaultPlan(events=tuple(events))
        plan.validate(num_nodes)
        return plan


def _nodes_of(event: FaultEvent) -> list[NodeId]:
    if isinstance(event, PartitionFault):
        return [n for g in event.groups for n in g]
    if isinstance(event, (LinkLossFault, JitterFault)):
        return [n for n in (event.src, event.dst) if n is not None]
    if isinstance(event, (StragglerFault, ReplicaOutageFault)):
        return [event.node]
    return []
