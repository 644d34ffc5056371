"""Chaos harness: run a workload under random faults, prove determinism.

The paper's recovery story (Section 4.3) rests on one invariant: the
database state is a pure function of the totally ordered input, so *any*
failure that preserves the input order — crashes recovered by replay,
partitions healed by retry, stragglers that merely slow execution — must
produce a final state bit-identical to the fault-free run.  This module
turns that claim into an executable check:

1. :func:`make_schedule` pre-computes an open-loop arrival schedule from
   the Google-trace YCSB workload.  Because the input is a pure function
   of (seed, time) — no client feedback loop — faults change *timing*
   but never *which* transactions arrive in *which order*.
2. :func:`run_reference` runs the schedule fault-free and records the
   final fingerprint, the applied-transaction set and a placement audit.
3. :func:`run_chaos_trial` runs the same schedule under a
   :class:`FaultPlan`.  Windowed faults are injected live; a crash
   abandons the cluster mid-flight and hands its
   :class:`~repro.engine.recovery.DurableState` to a survivor — a
   cluster rebuilt by replay, or, for a :class:`FailoverFault`, a WAN
   replica promoted in its place — which resumes the workload on a time
   axis shifted by a whole number of epochs.  The shift keeps every
   remaining arrival in the same position of the sequencer's epoch
   grid, so the survivor reproduces the reference batch composition
   exactly.
4. :func:`run_migration_trial` disrupts a fixed background migration
   part-way: a crash or a failover through the same crash path, a
   cancel and restart, or a pause and resume; with no scenario it is
   their reference.
5. :func:`verify_trial` compares any trial to its reference: equal
   fingerprints, no committed transaction lost, every retry drained,
   and a clean placement audit on both sides.

``benchmarks/test_chaos_determinism.py`` and
``benchmarks/test_migration_chaos_matrix.py`` sweep plans and scenarios
through this harness; ``tests/faults/`` runs fast subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.placement_audit import (
    PlacementAuditReport,
    audit_placement,
)
from repro.common.config import ClusterConfig
from repro.common.errors import FaultInjectionError
from repro.common.rng import DeterministicRNG
from repro.common.types import Batch, Transaction, TxnId, TxnKind
from repro.core.prescient import PrescientRouter
from repro.core.provisioning import ChunkMigration, ColdMigrationPlan
from repro.engine.cluster import Cluster
from repro.engine.migration import MigrationController, MigrationState
from repro.engine.recovery import (
    WAN_DELAY_US,
    DurableState,
    promote_replica,
    recover_from_crash,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashFault, FailoverFault, FaultPlan
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.google_trace import GoogleTraceConfig, SyntheticGoogleTrace
from repro.workloads.streaming import stream_schedule
from repro.workloads.ycsb import GoogleYCSBWorkload, YCSBConfig


#: Mean exponential inter-arrival gap of the open-loop schedule.
MEAN_GAP_US = 500.0

#: Length of the Google trace that shapes the schedule's partitions.
TRACE_DURATION_S = 30.0

#: Drain budget per run — generous next to the retry horizon.
MAX_TIME_US = 120_000_000.0


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Shape of one chaos experiment (sized for fast CI by default)."""

    num_nodes: int = 4
    num_keys: int = 4_000
    num_txns: int = 400

    @property
    def horizon_us(self) -> float:
        """Nominal span of the arrival schedule (fault-placement window)."""
        return self.num_txns * MEAN_GAP_US


#: The mid-migration smoke shape: one disrupted migration, small enough
#: for tier 1.
MIGRATION_SMOKE_CONFIG = ChaosConfig(num_keys=1_500, num_txns=80)

#: The crash kind behind each crash scenario of :func:`run_migration_trial`.
_CRASH_SCENARIOS = {"crash": CrashFault, "failover": FailoverFault}

#: Scenario names :func:`run_migration_trial` understands.
MIGRATION_SCENARIOS = (*_CRASH_SCENARIOS, "cancel-restart", "pause-resume")

#: The fixed background migration of every migration run: keys
#: ``[0, 300)`` move from node 0 to node 3 in six 50-record chunks, each
#: re-homing its range statically, starting at ``MIGRATION_START_US``.
MIGRATION_PLAN = ColdMigrationPlan(tuple(
    ChunkMigration(
        src=0, dst=3, keys=tuple(range(lo, lo + 50)),
        range_reassign=(lo, lo + 50),
    )
    for lo in range(0, 300, 50)
))
MIGRATION_START_US = 4_000.0

#: Ids up to this floor are reserved for the pre-minted workload
#: schedule, so ids minted live via ``Cluster.next_txn_id`` (migration
#: chunks, OLLP retries) never collide with it — the collision would
#: silently merge commit callbacks.
TXN_ID_FLOOR = 1_000_000


@dataclass(slots=True)
class ChaosRunResult:
    """Outcome of one run (reference or trial)."""

    fingerprint: int
    applied: frozenset[TxnId]
    """Transactions that finished (committed or deterministically
    aborted) — for a crash trial, the durable log's transactions plus
    everything finished after recovery."""

    audit: PlacementAuditReport
    """Placement audit of the final cluster (stores vs. ownership view
    vs. WAL history, record conservation)."""

    crashed: bool = False
    recovery_offset_us: float = 0.0
    resubmitted: int = 0
    """Backlog and in-flight transactions handed to a crash's survivor:
    the accepted input that had not reached the command log."""

    messages_dropped: int = 0
    retries_sent: int = 0
    duplicates_suppressed: int = 0
    controller_stats: dict[str, int] = field(default_factory=dict)
    """Migration counters summed over every controller of the run (all
    zero without a migration)."""

    scenario_engaged: bool = True
    """False when a migration disruption fired after the migration had
    already finished — the run is still verified, but did not exercise
    the mid-migration path."""

    problems: list[str] = field(default_factory=list)
    """Internal-invariant violations observed during the run itself."""


def iter_schedule(config: ChaosConfig, seed: int):
    """The arrival schedule for one seed, as a lazy generator.

    Yields ``(arrival_us, txn)`` pairs in arrival order, minted from the
    Google-trace YCSB generator.  The stream is computed *before* any
    cluster exists (nothing feeds back into it), so it is identical
    across the reference run and every fault trial — the independence
    that makes fingerprint equality a sound check.  Draw-for-draw
    identical to the materialized :func:`make_schedule` (see
    :mod:`repro.workloads.streaming`), but holds O(1) schedule state,
    which is what permits million-key chaos runs.
    """
    rng = DeterministicRNG(seed, "chaos")
    trace = SyntheticGoogleTrace(
        GoogleTraceConfig(
            num_machines=config.num_nodes,
            duration_s=TRACE_DURATION_S,
        ),
        rng,
    )
    workload = GoogleYCSBWorkload(
        YCSBConfig(
            num_keys=config.num_keys, num_partitions=config.num_nodes
        ),
        trace,
        rng,
    )
    return stream_schedule(
        workload.make_txn,
        rng.fork("arrivals"),
        MEAN_GAP_US,
        config.num_txns,
    )


def make_schedule(
    config: ChaosConfig, seed: int
) -> list[tuple[float, Transaction]]:
    """The materialized form of :func:`iter_schedule` (small configs)."""
    return list(iter_schedule(config, seed))


def make_cluster_builder(config: ChaosConfig) -> Callable[[], Cluster]:
    """A builder producing identical fresh clusters (required by replay),
    with ids up to :data:`TXN_ID_FLOOR` reserved for the schedule."""
    cluster_config = ClusterConfig(num_nodes=config.num_nodes)

    def build() -> Cluster:
        cluster = Cluster(
            cluster_config,
            PrescientRouter(),
            make_uniform_ranges(config.num_keys, config.num_nodes),
            keep_command_log=True,
        )
        cluster.load_data(range(config.num_keys))
        cluster.set_txn_id_floor(TXN_ID_FLOOR)
        return cluster

    return build


def _tee_to_replica(primary: Cluster, replica: Cluster) -> None:
    """Forward each batch ``primary`` delivers to ``replica`` across the
    WAN; the clone isolates replica-side mutation, and the ordered
    injection pins the epoch order at the receiver."""
    deliver = primary.sequencer.deliver

    def tee(batch: Batch) -> None:
        deliver(batch)
        replica.kernel.call_at(
            primary.kernel.now + WAN_DELAY_US,
            replica.inject_batch_ordered, batch.clone(),
        )

    primary.sequencer.deliver = tee


def _submit_schedule(
    cluster: Cluster,
    schedule: list[tuple[float, Transaction]],
    after_us: float = -1.0,
    offset_us: float = 0.0,
) -> None:
    for arrival, txn in schedule:
        if arrival > after_us:
            cluster.kernel.call_at(arrival + offset_us, cluster.submit, txn)


def _track_applied(cluster: Cluster, into: set[TxnId]) -> None:
    cluster.commit_listeners.append(lambda rt: into.add(rt.txn.txn_id))


def run_reference(
    config: ChaosConfig,
    schedule: list[tuple[float, Transaction]],
    build_cluster: Callable[[], Cluster],
) -> ChaosRunResult:
    """Run the schedule fault-free; the ground truth for every trial."""
    return _run(config, schedule, build_cluster)


def run_chaos_trial(
    config: ChaosConfig,
    schedule: list[tuple[float, Transaction]],
    build_cluster: Callable[[], Cluster],
    plan: FaultPlan,
    rng: DeterministicRNG,
) -> ChaosRunResult:
    """Run the schedule under ``plan``; hand over to a survivor if the
    plan crashes.

    The crash path is the interesting one.  At the crash instant ``T``
    the cluster object is abandoned (the execution tier died) and its
    durable tier captured.  The survivor is a fresh cluster replaying
    the command log for a :class:`CrashFault`, or for a
    :class:`FailoverFault` the replica built at time zero, fed every
    delivered batch ``WAN_DELAY_US`` later and run until it has consumed
    them; either way it holds the logged state at kernel time ``R``.
    The workload then resumes shifted by ``O = k * epoch_us``, the
    smallest whole number of epochs with ``T + O > R``:

    * the sequencer backlog is resubmitted at kernel ``T + O`` (its
      virtual crash-time position, in captured order),
    * sequenced-but-undelivered batches are re-delivered at their
      original delivery times plus ``O`` through the epoch reorder
      buffer,
    * arrivals after ``T`` are submitted at their schedule times plus
      ``O``.

    Because ``O`` is a whole number of epochs, the sequencer's cut grid
    in kernel time coincides with the virtual grid — every transaction
    falls into the *same epoch* as in the reference run, so batch
    composition, routing, and lock order all replay exactly, and the
    final fingerprint must match the fault-free reference.
    """
    return _run(config, schedule, build_cluster, plan, rng)


def run_migration_trial(
    config: ChaosConfig,
    schedule: list[tuple[float, Transaction]],
    build_cluster: Callable[[], Cluster],
    scenario: str | None,
    event_at_us: float = 50_000.0,
    resume_at_us: float = 100_000.0,
) -> ChaosRunResult:
    """Run the workload with the migration disrupted mid-flight.

    The disruption strikes at ``event_at_us``; a cancelled plan restarts
    (a paused one resumes) at ``resume_at_us``.  Scenarios:

    * ``"cancel-restart"`` — ``cancel()`` (capturing the unsubmitted
      remainder), then ``start()`` a fresh session on that remainder.
      The in-flight chunk's commit callback arrives for the cancelled
      generation and must be dropped as an orphan, never resumed.
    * ``"pause-resume"`` — ``pause()`` then ``resume()``; same session
      throughout.
    * ``"crash"`` — ``FaultPlan((CrashFault(event_at_us),))`` through
      the crash path of :func:`run_chaos_trial`; a *new* controller on
      the recovered cluster resumes the plan minus every chunk the
      durable order already contains.  Replay re-executes logged
      chunks, re-delivery commits in-flight ones, and backlog
      resubmission re-sequences the rest under their original ids, so
      none of them may be re-planned under fresh ids.
    * ``"failover"`` — the same with a :class:`FailoverFault`: the
      survivor is the promoted replica, which executed the logged
      chunks as they crossed the WAN.

    ``None`` runs the migration undisturbed: the reference they all
    must converge to in fingerprint and applied set, and pass the
    placement auditor with zero orphaned records.
    """
    if scenario is not None and scenario not in MIGRATION_SCENARIOS:
        raise FaultInjectionError(f"unknown migration scenario {scenario!r}")
    if scenario in _CRASH_SCENARIOS:
        # A crash-only plan schedules no injector event and draws no
        # random number, so the rng's seed is immaterial.
        plan = FaultPlan((_CRASH_SCENARIOS[scenario](at_us=event_at_us),))
        return _run(
            config, schedule, build_cluster, plan,
            DeterministicRNG(0, "migration-crash"), migrate=True,
        )
    disruption = None if scenario is None else (
        scenario, event_at_us, resume_at_us
    )
    return _run(
        config, schedule, build_cluster, migrate=True, disruption=disruption
    )


def _run(
    config: ChaosConfig,
    schedule: list[tuple[float, Transaction]],
    build_cluster: Callable[[], Cluster],
    plan: FaultPlan | None = None,
    rng: DeterministicRNG | None = None,
    migrate: bool = False,
    disruption: tuple[str, float, float] | None = None,
) -> ChaosRunResult:
    """The one run loop behind every reference and trial.

    ``plan`` (drawing from ``rng``) injects faults, ``migrate`` starts
    the fixed migration, ``disruption`` is ``(scenario, event_at_us,
    resume_at_us)`` of a non-crash migration scenario.  Same-instant
    ``call_at`` order is part of the kernel digest, so the scheduling
    order below is fixed: injector, schedule, migration start,
    disruption; after a crash, injector, backlog, in-flight batches,
    schedule, migration remainder.  Only a failover plan builds the
    replica, right after the primary.
    """
    crashes = plan.crashes() if plan is not None else []
    cluster = build_cluster()
    replica = None
    if crashes and isinstance(crashes[0], FailoverFault):
        replica = build_cluster()
        _tee_to_replica(cluster, replica)
    if plan is not None:
        FaultInjector(cluster, plan, rng).install()
    applied: set[TxnId] = set()
    _track_applied(cluster, applied)
    _submit_schedule(cluster, schedule)
    controllers: list[MigrationController] = []
    if migrate:
        controllers.append(MigrationController(cluster))
        cluster.kernel.call_at(
            MIGRATION_START_US, controllers[0].start, MIGRATION_PLAN
        )
    if disruption is not None:
        _schedule_disruption(cluster, controllers[0], *disruption)

    if not crashes:
        cluster.run_until_quiescent(MAX_TIME_US)
        if disruption is not None and cluster.kernel.now < disruption[2]:
            # Quiescence only tracks submitted work: a cluster that
            # drains while cancelled/paused looks idle before the
            # recovery timer (at resume_at_us) fires.  Step past it,
            # then drain the restarted migration.
            cluster.run_until(disruption[2])
            cluster.run_until_quiescent(MAX_TIME_US)
        # A disruption engaged iff its cancel or pause shows in the
        # migration's lifecycle history.
        engaged = disruption is None or any(
            state in ("cancelled", "paused")
            for session in controllers[0].sessions
            for _at, state in session.history
        )
        return _result(
            config, [cluster], applied, controllers, [],
            scenario_engaged=engaged,
        )

    crash_at = crashes[0].at_us
    if crash_at >= MAX_TIME_US:
        raise FaultInjectionError("crash scheduled after the drain budget")
    cluster.run_until(crash_at)
    engaged_at_crash = not controllers or controllers[0].active
    durable = DurableState.capture(cluster)
    pre_crash_applied = set(applied)
    problems: list[str] = []
    not_durable = pre_crash_applied - durable.sequenced_txn_ids()
    if not_durable:
        problems.append(
            f"{len(not_durable)} applied txns missing from durable order"
        )

    # The execution tier is gone: promote the replica that consumed the
    # same input, or rebuild from the durable tier.
    if replica is not None:
        recovered = promote_replica(replica, durable, max_time_us=MAX_TIME_US)
    else:
        recovered = recover_from_crash(
            build_cluster, durable, max_time_us=MAX_TIME_US
        )
    replay_end = recovered.kernel.now
    epoch_us = recovered.config.engine.epoch_us
    whole_epochs = math.floor((replay_end - crash_at) / epoch_us) + 1
    offset = max(0, whole_epochs) * epoch_us

    post_applied: set[TxnId] = set()
    _track_applied(recovered, post_applied)
    FaultInjector(recovered, plan, rng).install(
        from_virtual_us=crash_at, offset_us=offset
    )
    backlog = durable.backlog_priority + durable.backlog_pending
    for txn in backlog:
        recovered.kernel.call_at(crash_at + offset, recovered.submit, txn)
    latency = recovered.config.costs.sequencer_latency_us
    for cut_time, batch in durable.in_flight:
        recovered.kernel.call_at(
            cut_time + latency + offset,
            recovered.inject_batch_ordered,
            batch,
        )
    _submit_schedule(
        recovered, schedule, after_us=crash_at, offset_us=offset
    )
    if controllers:
        # Resume only what the durable order does not carry (see
        # run_migration_trial's "crash" scenario).
        controllers.append(MigrationController(recovered))
        remainder = MIGRATION_PLAN.remainder_excluding(
            _durable_migration_chunks(durable)
        )
        if remainder.chunks:
            recovered.kernel.call_at(
                crash_at + offset, controllers[-1].start, remainder
            )
    recovered.run_until_quiescent(MAX_TIME_US + offset)

    logged: set[TxnId] = set()
    for batch in durable.command_log:
        logged.update(batch.ids())
    final_applied = logged | post_applied
    lost = pre_crash_applied - final_applied
    if lost:
        problems.append(f"{len(lost)} pre-crash applied txns lost")
    return _result(
        config, [cluster, recovered], final_applied, controllers, problems,
        scenario_engaged=engaged_at_crash,
        crashed=True,
        recovery_offset_us=offset,
        resubmitted=len(backlog) + sum(
            len(batch) for _cut, batch in durable.in_flight
        ),
    )


def _result(
    config: ChaosConfig,
    clusters: list[Cluster],
    applied: set[TxnId],
    controllers: list[MigrationController],
    problems: list[str],
    **fields,
) -> ChaosRunResult:
    """Score the run's final cluster against the drain invariants every
    run must satisfy; network counters sum over every cluster the run
    used (an abandoned one stopped at the crash)."""
    final = clusters[-1]
    if final.inflight:
        problems.append(f"{final.inflight} transactions never finished")
    if final.network.reliable_in_flight:
        problems.append(
            f"{final.network.reliable_in_flight} reliable messages "
            "never delivered"
        )
    if final.buffered_epochs:
        problems.append(
            f"{final.buffered_epochs} epochs stuck in reorder buffer"
        )
    if controllers and controllers[-1].active:
        problems.append("migration never finished")
    networks = [c.network for c in clusters]
    return ChaosRunResult(
        fingerprint=final.state_fingerprint(),
        applied=frozenset(applied),
        audit=audit_placement(final, expected_total=config.num_keys),
        messages_dropped=sum(n.messages_dropped for n in networks),
        retries_sent=sum(n.retries_sent for n in networks),
        duplicates_suppressed=sum(n.duplicates_suppressed for n in networks),
        controller_stats=_controller_stats(*controllers),
        problems=problems,
        **fields,
    )


def verify_trial(
    trial: ChaosRunResult, reference: ChaosRunResult
) -> list[str]:
    """Every way the trial deviates from the fault-free reference.

    An empty list is the chaos suite's pass condition: identical final
    state, no committed transaction lost, no spurious transactions, a
    clean placement audit with zero orphaned records on both sides, and
    all in-run invariants held.
    """
    problems = list(trial.problems)
    if trial.fingerprint != reference.fingerprint:
        problems.append(
            f"fingerprint mismatch: {trial.fingerprint:#x} != "
            f"{reference.fingerprint:#x}"
        )
    lost = reference.applied - trial.applied
    if lost:
        problems.append(f"{len(lost)} reference txns never applied")
    extra = trial.applied - reference.applied
    if extra:
        problems.append(f"{len(extra)} txns applied that reference lacks")
    for name, report in (("trial", trial.audit), ("reference",
                                                  reference.audit)):
        if not report.ok:
            problems.extend(
                f"{name} placement audit: {p}" for p in report.problems
            )
        if report.orphaned_records:
            problems.append(
                f"{name} has {report.orphaned_records} orphaned records"
            )
    return problems


def _schedule_disruption(
    cluster: Cluster,
    controller: MigrationController,
    scenario: str,
    event_at_us: float,
    resume_at_us: float,
) -> None:
    """Arm a cancel-restart or pause-resume of the live migration; one
    that strikes after the migration finished does nothing."""
    remainder: list[ChunkMigration] = []

    def disrupt() -> None:
        if not controller.active:
            return
        if scenario == "cancel-restart":
            remainder.extend(controller.cancel())
        elif controller.session.state is MigrationState.RUNNING:
            controller.pause()

    def recover() -> None:
        session = controller.session
        if remainder:
            controller.start(ColdMigrationPlan(tuple(remainder)))
        elif session is not None and session.state is MigrationState.PAUSED:
            controller.resume()

    cluster.kernel.call_at(event_at_us, disrupt)
    cluster.kernel.call_at(resume_at_us, recover)


def _controller_stats(*controllers: MigrationController) -> dict[str, int]:
    return {
        "sessions": sum(len(c.sessions) for c in controllers),
        "submitted": sum(c.chunks_submitted for c in controllers),
        "committed": sum(c.chunks_committed for c in controllers),
        "orphaned": sum(c.chunks_orphaned for c in controllers),
        "records_moved": sum(c.records_moved for c in controllers),
        "bytes_on_wire": sum(c.bytes_on_wire for c in controllers),
    }


def _durable_migration_chunks(durable: DurableState) -> set[ChunkMigration]:
    """Every chunk the durable order will (re-)execute by itself."""
    txns = [txn for batch in durable.command_log for txn in batch]
    txns += [txn for _cut, batch in durable.in_flight for txn in batch]
    txns += durable.backlog_priority + durable.backlog_pending
    return {
        txn.payload for txn in txns
        if txn.kind is TxnKind.MIGRATION
        and isinstance(txn.payload, ChunkMigration)
    }


def migration_trial_digest(
    config: ChaosConfig, scenario: str, seed: int = 21
) -> str:
    """Combined sanitizer digest of one mid-migration trial.

    Runs the trial with a :class:`StreamDigest` attached to every kernel
    it creates and folds the per-kernel digests (in creation order) into
    one hex string.  Two runs of the same (config, scenario, seed) — in
    the same process or across processes with different
    ``PYTHONHASHSEED`` — must print the same value; CI's sanitize job
    diffs exactly this.
    """
    # Imported here: repro.sanitize imports the experiment layer, which
    # imports this package.
    from repro.sanitize.digest import capture_digests, fold_kernel_digests

    schedule = make_schedule(config, seed)
    build = make_cluster_builder(config)
    with capture_digests() as digests:
        run_migration_trial(config, schedule, build, scenario)
    return fold_kernel_digests((d.count, d.hexdigest()) for d in digests)


def smoke_migration_digest() -> str:
    """The CI smoke digest: one crash-during-migration trial."""
    return migration_trial_digest(MIGRATION_SMOKE_CONFIG, "crash")
