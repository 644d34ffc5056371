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

A session has one lifecycle::

    RUNNING -> DONE | CANCELLED

It is born ``RUNNING`` in ``start()``, becomes ``DONE`` once nothing is
left to submit and nothing is in flight, and ``CANCELLED`` on
``cancel()``.  Leaving a terminal state raises
:class:`~repro.common.errors.ConfigurationError`; the terminal
transition is traced, so a Perfetto timeline shows one
``migration_session`` span per migration with its counters.

The controller is migration *executor* machinery; *what* to migrate
comes from a planner — :func:`~repro.core.provisioning.range_chunks`
and the resize plans built from it, or Clay's overload planner.
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

    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


_TERMINAL = frozenset({MigrationState.DONE, MigrationState.CANCELLED})


class MigrationSession:
    """One tracked execution of a :class:`ColdMigrationPlan`.

    Owns the per-migration statistics and the lifecycle; chunk
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
        self.state = MigrationState.RUNNING
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

    # -- lifecycle ---------------------------------------------------------

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
        """End a RUNNING session in ``new_state`` (DONE or CANCELLED);
        any other edge raises ConfigurationError."""
        if self.terminal or new_state not in _TERMINAL:
            raise ConfigurationError(
                f"illegal migration transition {self.state.value} -> "
                f"{new_state.value} (session {self.generation})"
            )
        self.state = new_state
        self.ended_at_us = self._cluster.kernel.now
        tracer = self._cluster.tracer
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
    sessions.
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
        if session.generation != self._generation or session.terminal:
            # Defensive: cancel disarms the gap timer eagerly, but a
            # stale wakeup must never resume a superseded generation.
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.migration(
                    "submit_dropped", session=session.generation,
                    state=session.state.value,
                )
            return
        if not session.remaining:
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
        if not session.remaining:
            self._maybe_finish(session)
            return
        gap = self.cluster.config.engine.migration_chunk_gap_us
        self._gap_timer = self.cluster.kernel.call_later(
            gap, self._submit_next, session
        )

    def _maybe_finish(self, session: MigrationSession) -> None:
        # The terminal check covers an ``on_chunk`` that cancelled.
        if session.in_flight == 0 and not session.terminal:
            session.transition(MigrationState.DONE)
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.migration(
                    "migration_complete", session=session.generation,
                    chunks=session.chunks_committed,
                )
            if session.on_complete is not None:
                session.on_complete()
