"""Sessioned cold-data migration execution (Squall-style, Section 3.3).

Takes a :class:`ColdMigrationPlan` and injects one MIGRATION transaction
per chunk into the sequencer, pacing chunks so background migration
trickles along behind foreground work: the next chunk is submitted only
after the previous one commits plus a configurable gap.

Every ``start()`` mints a :class:`MigrationSession` with a monotonically
increasing **generation id**; each sequencer submission and each
``chunk_done`` commit callback is tagged with its session.  A callback
arriving for a superseded or cancelled generation is *dropped* and
traced as ``chunk_orphaned`` — the total-order position of the already
sequenced chunk is preserved (it commits like any transaction), but it
can never re-enter the pacing loop and resume a dead plan.  This closes
the classic stale-closure bug where ``cancel()`` followed by
``start(new_plan)`` let the old plan's pending callback resubmit the
cancelled remainder interleaved with the new plan.

Sessions move through an explicit state machine::

    PLANNING -> RUNNING -> (PAUSED <-> RUNNING) -> DRAINING -> DONE
                      \\__________________________________/-> CANCELLED

``DRAINING`` means every chunk has been handed to the sequencer and the
session is waiting for the last commit.  Transitions outside the table
raise :class:`~repro.common.errors.ConfigurationError`, and each
transition is recorded in ``session.history`` and traced, so a Perfetto
timeline shows one ``migration_session`` span per migration with its
full lifecycle.

The controller is migration *executor* machinery; *what* to migrate
comes from a planner — Hermes' :class:`HybridMigrationPlanner`, Clay's
overload planner, or a hand-written plan in the scale-out benchmarks.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.common.types import Transaction, TxnKind
from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.engine.cluster import Cluster
from repro.engine.executor import CONTROL_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import TxnRuntime
    from repro.sim.kernel import TimerHandle


class MigrationState(Enum):
    """Lifecycle states of one migration session."""

    PLANNING = "planning"
    RUNNING = "running"
    PAUSED = "paused"
    DRAINING = "draining"
    DONE = "done"
    CANCELLED = "cancelled"


#: Legal state-machine edges; anything else is a programming error.
_TRANSITIONS: dict[MigrationState, frozenset[MigrationState]] = {
    MigrationState.PLANNING: frozenset(
        {MigrationState.RUNNING, MigrationState.CANCELLED}
    ),
    MigrationState.RUNNING: frozenset(
        {MigrationState.PAUSED, MigrationState.DRAINING,
         MigrationState.CANCELLED}
    ),
    MigrationState.PAUSED: frozenset(
        {MigrationState.RUNNING, MigrationState.CANCELLED}
    ),
    MigrationState.DRAINING: frozenset(
        {MigrationState.DONE, MigrationState.CANCELLED}
    ),
    MigrationState.DONE: frozenset(),
    MigrationState.CANCELLED: frozenset(),
}

_TERMINAL = frozenset({MigrationState.DONE, MigrationState.CANCELLED})


class MigrationSession:
    """One tracked execution of a :class:`ColdMigrationPlan`.

    Owns the per-migration statistics and the state machine; chunk
    submission stays in the controller, which tags every callback with
    the session so stale generations can be recognised and dropped.
    """

    def __init__(
        self,
        generation: int,
        plan: ColdMigrationPlan,
        cluster: Cluster,
        on_complete: Callable[[], None] | None = None,
        on_chunk: "Callable[[ChunkMigration, TxnRuntime], None] | None" = None,
    ) -> None:
        self.generation = generation
        self.plan = plan
        self.state = MigrationState.PLANNING
        self.on_complete = on_complete
        self.on_chunk = on_chunk
        self._cluster = cluster
        self.started_at_us = cluster.kernel.now
        self.ended_at_us: float | None = None
        #: chunks not yet handed to the sequencer, in plan order.
        self.remaining: list[ChunkMigration] = list(plan.chunks)
        self.chunks_submitted = 0
        self.chunks_committed = 0
        self.chunks_orphaned = 0
        self.records_moved = 0
        self.bytes_on_wire = 0
        #: (simulated_us, state) pairs — the audited lifecycle record.
        self.history: list[tuple[float, str]] = [
            (self.started_at_us, self.state.value)
        ]

    # -- state machine -----------------------------------------------------

    @property
    def terminal(self) -> bool:
        """True once the session reached DONE or CANCELLED."""
        return self.state in _TERMINAL

    @property
    def in_flight(self) -> int:
        """Chunks handed to the sequencer whose commit has not resolved."""
        return (
            self.chunks_submitted - self.chunks_committed
            - self.chunks_orphaned
        )

    def transition(self, new_state: MigrationState) -> None:
        """Move to ``new_state``; illegal edges raise ConfigurationError."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"illegal migration transition {self.state.value} -> "
                f"{new_state.value} (session {self.generation})"
            )
        self.state = new_state
        now = self._cluster.kernel.now
        self.history.append((now, new_state.value))
        tracer = self._cluster.tracer
        if tracer is not None:
            tracer.migration(
                "session_state", session=self.generation,
                state=new_state.value,
            )
        if new_state in _TERMINAL:
            self.ended_at_us = now
            if tracer is not None:
                tracer.migration_session(
                    self.generation, new_state.value, self.started_at_us,
                    **self.stats_snapshot(),
                )

    def stats_snapshot(self) -> dict[str, int]:
        """Per-session counters (traced on the terminal transition)."""
        return {
            "chunks_submitted": self.chunks_submitted,
            "chunks_committed": self.chunks_committed,
            "chunks_orphaned": self.chunks_orphaned,
            "records_moved": self.records_moved,
            "bytes_on_wire": self.bytes_on_wire,
        }


class MigrationController:
    """Paced, generation-tagged execution of cold migration plans.

    At most one session is live at a time (``start`` raises while one
    is); completed sessions stay in :attr:`sessions` for auditability.
    The cumulative counters (``chunks_submitted`` etc.) sum over all
    sessions, preserving the pre-session API that callers such as the
    Squall baseline and the scale-out benchmarks rely on.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        #: every session ever started, oldest first (audit trail).
        self.sessions: list[MigrationSession] = []
        self._generation = 0
        self._gap_timer: "TimerHandle | None" = None

    # -- inspection --------------------------------------------------------

    @property
    def session(self) -> MigrationSession | None:
        """The most recently started session (live or terminal)."""
        return self.sessions[-1] if self.sessions else None

    @property
    def active(self) -> bool:
        session = self.session
        return session is not None and not session.terminal

    @property
    def chunks_submitted(self) -> int:
        return sum(s.chunks_submitted for s in self.sessions)

    @property
    def chunks_committed(self) -> int:
        return sum(s.chunks_committed for s in self.sessions)

    @property
    def chunks_orphaned(self) -> int:
        return sum(s.chunks_orphaned for s in self.sessions)

    @property
    def records_moved(self) -> int:
        return sum(s.records_moved for s in self.sessions)

    @property
    def bytes_on_wire(self) -> int:
        return sum(s.bytes_on_wire for s in self.sessions)

    # -- lifecycle ---------------------------------------------------------

    def start(
        self,
        plan: ColdMigrationPlan,
        on_complete: Callable[[], None] | None = None,
        on_chunk: "Callable[[ChunkMigration, TxnRuntime], None] | None" = None,
    ) -> MigrationSession:
        """Begin executing ``plan``; ``on_complete`` fires after the last
        chunk commits.  Returns the freshly minted session.

        ``on_chunk`` fires once per current-generation chunk commit,
        with the chunk and its runtime, *before* pacing continues —
        the replication coordinator uses it to mark replica holders
        valid at the install's commit point (never earlier)."""
        if self.active:
            raise RuntimeError("a migration is already in progress")
        self._generation += 1
        session = MigrationSession(
            self._generation, plan, self.cluster, on_complete, on_chunk
        )
        self.sessions.append(session)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.migration(
                "migration_start",
                session=session.generation,
                chunks=len(plan.chunks),
                records=plan.total_keys(),
            )
        session.transition(MigrationState.RUNNING)
        self._submit_next(session)
        return session

    def pause(self) -> MigrationSession:
        """Stop handing out new chunks; in-flight chunks still commit.

        Only a RUNNING session can pause (a DRAINING one has nothing
        left to withhold).  Resume later with :meth:`resume`.
        """
        session = self.session
        if session is None or session.state is not MigrationState.RUNNING:
            state = "idle" if session is None else session.state.value
            raise ConfigurationError(
                f"pause() requires a running migration (state: {state})"
            )
        self._disarm_gap_timer()
        session.transition(MigrationState.PAUSED)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.migration(
                "migration_paused", session=session.generation,
                unsubmitted=len(session.remaining),
                in_flight=session.in_flight,
            )
        return session

    def resume(
        self, remainder: list[ChunkMigration] | None = None
    ) -> MigrationSession:
        """Continue a paused session, optionally with a revised remainder.

        ``remainder`` replaces the unsubmitted chunk list (e.g. a planner
        re-prioritised the tail while the migration was paused); ``None``
        keeps the original tail.
        """
        session = self.session
        if session is None or session.state is not MigrationState.PAUSED:
            state = "idle" if session is None else session.state.value
            raise ConfigurationError(
                f"resume() requires a paused migration (state: {state})"
            )
        if remainder is not None:
            session.remaining = list(remainder)
        session.transition(MigrationState.RUNNING)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.migration(
                "migration_resumed", session=session.generation,
                unsubmitted=len(session.remaining),
            )
        if session.in_flight == 0:
            # Nothing pending whose commit callback would continue the
            # pacing loop — kick it ourselves.
            self._submit_next(session)
        return session

    def cancel(self) -> list[ChunkMigration]:
        """Stop submitting further chunks; return the unsubmitted rest.

        Chunks already in the sequencer keep their total-order position
        and will commit — cancellation only prevents *new* chunks, so a
        degraded cluster (node crash, partition) can abandon background
        migration and restart later from the returned remainder.  With
        no live migration this is a traced no-op returning ``[]``: it
        neither fabricates lifecycle state nor emits a cancellation
        event for a migration that never existed.
        """
        session = self.session
        tracer = self.cluster.tracer
        if session is None or session.terminal:
            if tracer is not None:
                tracer.migration("migration_cancel_noop")
            return []
        self._disarm_gap_timer()
        remaining, session.remaining = list(session.remaining), []
        session.transition(MigrationState.CANCELLED)
        if tracer is not None:
            tracer.migration(
                "migration_cancelled", session=session.generation,
                unsubmitted=len(remaining), in_flight=session.in_flight,
            )
        return remaining

    # -- pacing loop -------------------------------------------------------

    def _disarm_gap_timer(self) -> None:
        if self._gap_timer is not None:
            self._gap_timer.cancel()
            self._gap_timer = None

    def _submit_next(self, session: MigrationSession) -> None:
        self._gap_timer = None
        if (
            session.generation != self._generation
            or session.state not in (
                MigrationState.RUNNING, MigrationState.DRAINING
            )
        ):
            # Defensive: pause/cancel disarm the gap timer eagerly, but a
            # stale wakeup must never resume a superseded generation.
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.migration(
                    "submit_dropped", session=session.generation,
                    state=session.state.value,
                )
            return
        if not session.remaining:
            if session.state is MigrationState.RUNNING:
                session.transition(MigrationState.DRAINING)
            self._maybe_finish(session)
            return
        chunk = session.remaining.pop(0)
        txn = Transaction(
            txn_id=self.cluster.next_txn_id(),
            read_set=frozenset(chunk.keys),
            write_set=frozenset(),
            kind=TxnKind.MIGRATION,
            arrival_time=self.cluster.kernel.now,
            payload=chunk,
        )
        session.chunks_submitted += 1
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.migration(
                "chunk_submit", txn=txn.txn_id,
                session=session.generation,
                chunk=session.chunks_submitted, records=len(chunk.keys),
            )
        if not session.remaining:
            session.transition(MigrationState.DRAINING)
        self.cluster.submit(
            txn, on_commit=self._make_chunk_done(session, txn)
        )

    def _make_chunk_done(self, session: MigrationSession, txn: Transaction):
        def chunk_done(runtime: "TxnRuntime") -> None:
            self._chunk_done(session, txn, runtime)

        return chunk_done

    def _chunk_done(
        self, session: MigrationSession, txn: Transaction,
        runtime: "TxnRuntime",
    ) -> None:
        tracer = self.cluster.tracer
        if session.generation != self._generation or session.terminal:
            # The generation tag outlived its session: a later start()
            # superseded it, or cancel() retired it while this chunk was
            # in the sequencer.  Count and trace, never resume.
            session.chunks_orphaned += 1
            if tracer is not None:
                tracer.migration(
                    "chunk_orphaned", txn=txn.txn_id,
                    session=session.generation,
                    state=session.state.value,
                )
            return
        session.chunks_committed += 1
        # Copy chunks (replica installs) carry no migrations; they ship
        # the same records over the wire, counted from the install set.
        moved = len(runtime.plan.migrations)
        if not moved and runtime.plan.replica_installs is not None:
            moved = len(runtime.plan.replica_installs)
        session.records_moved += moved
        if moved:
            record_bytes = runtime.txn.profile.record_bytes
            session.bytes_on_wire += CONTROL_BYTES + record_bytes * moved
        if session.on_chunk is not None:
            chunk = txn.payload
            session.on_chunk(chunk, runtime)
        if tracer is not None:
            tracer.migration(
                "chunk_commit", txn=txn.txn_id,
                session=session.generation,
                chunk=session.chunks_committed, moved=moved,
                remaining=len(session.remaining),
            )
        if session.state is MigrationState.PAUSED:
            # resume() restarts the pacing loop; the commit is recorded
            # but must not schedule the next chunk.
            return
        if session.state is MigrationState.DRAINING:
            self._maybe_finish(session)
            return
        gap = self.cluster.config.engine.migration_chunk_gap_us
        self._gap_timer = self.cluster.kernel.call_later(
            gap, self._submit_next, session
        )

    def _maybe_finish(self, session: MigrationSession) -> None:
        if (
            session.state is MigrationState.DRAINING
            and session.in_flight == 0
            and not session.remaining
        ):
            session.transition(MigrationState.DONE)
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.migration(
                    "migration_complete", session=session.generation,
                    chunks=session.chunks_committed,
                )
            if session.on_complete is not None:
                session.on_complete()
