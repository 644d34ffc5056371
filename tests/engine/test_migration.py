"""Integration tests for chunked cold migration and provisioning."""

import pytest

from repro.analysis.placement_audit import audit_placement
from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Transaction
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.core.provisioning import ColdMigrationPlan, range_chunks
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.engine.migration import (
    MigrationController,
    MigrationSession,
    MigrationState,
)
from repro.obs.tracer import Tracer
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400


def build(router, num_nodes=4, active=None, overlay=None, tracer=None):
    config = ClusterConfig(
        num_nodes=num_nodes,
        engine=EngineConfig(
            epoch_us=5_000.0,
            workers_per_node=2,
            migration_chunk_records=25,
            migration_chunk_gap_us=1_000.0,
        ),
    )
    cluster = Cluster(
        config,
        router,
        make_uniform_ranges(NUM_KEYS, num_nodes),
        overlay=overlay,
        active_nodes=active,
        validate_plans=True,
        tracer=tracer,
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


def run_until_true(cluster, predicate, step_us=100.0, limit_us=60_000_000.0):
    """Advance in small steps until ``predicate()`` holds (or fail)."""
    while not predicate():
        assert cluster.kernel.now < limit_us, "predicate never became true"
        cluster.run_until(cluster.kernel.now + step_us)


class TestSquallExecutor:
    """Squall's chunked range migration, run by a MigrationController."""

    def test_range_physically_moves(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        done = []
        controller.start(
            range_chunks(0, 3, 0, 100, 25), on_complete=lambda: done.append(1)
        )
        cluster.run_until_quiescent(60_000_000)
        assert done == [1]
        placement = cluster.placement_snapshot()
        assert all(k in placement[3] for k in range(0, 100))
        assert cluster.total_records() == NUM_KEYS

    def test_static_map_updated(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 3, 0, 100, 25))
        cluster.run_until_quiescent(60_000_000)
        assert cluster.ownership.static.home(50) == 3
        assert cluster.ownership.owner(50) == 3

    def test_chunks_paced_one_at_a_time(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        plan = range_chunks(0, 3, 0, 50, 10)
        assert len(plan) == 5
        controller.start(plan)
        cluster.run_until_quiescent(60_000_000)
        assert controller.chunks_committed == 5

    def test_concurrent_user_txns_still_commit(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 3, 0, 100, 25))
        for i in range(1, 30):
            cluster.submit(Transaction.read_write(1000 + i, [i * 3], [i * 3]))
        cluster.run_until_quiescent(60_000_000)
        assert cluster.metrics.commits == 29
        assert cluster.total_records() == NUM_KEYS
        assert cluster.lock_manager.outstanding() == 0

    def test_double_start_rejected(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        plan = range_chunks(0, 3, 0, 100, 50)
        controller.start(plan)
        with pytest.raises(RuntimeError):
            controller.start(plan)

    def test_cancel_stops_unsubmitted_chunks(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        plan = range_chunks(0, 3, 0, 50, 10)
        controller.start(plan)
        # Let the first plan run to completion.
        cluster.run_until_quiescent(60_000_000)
        assert controller.chunks_committed >= 1
        # Re-start a fresh plan and cancel before the second chunk goes in.
        plan2 = range_chunks(3, 0, 0, 50, 10)
        controller.start(plan2)
        cluster.run_until(cluster.kernel.now + 1_000.0)
        remaining = controller.cancel()
        submitted_before = controller.chunks_submitted
        assert not controller.active
        assert len(remaining) + submitted_before - 5 == len(plan2.chunks)
        cluster.run_until_quiescent(60_000_000)
        # No further chunks were submitted after the cancel.
        assert controller.chunks_submitted == submitted_before
        assert cluster.lock_manager.outstanding() == 0


class TestHermesScaleOut:
    def test_fusion_skips_hot_keys_in_chunks(self):
        """Records already fused away from the chunk's source are not
        shipped by cold migration (Section 3.3 isolation)."""
        table = FusionTable(FusionConfig(capacity=1000))
        cluster = build(PrescientRouter(), active=[0, 1, 2], overlay=table)

        # Fuse keys 0..4 onto node 1 via user transactions that write them
        # together with a node-1-resident key.
        for i in range(5):
            cluster.submit(
                Transaction.read_write(100 + i, [i, 150 + i], [i, 150 + i])
            )
        cluster.run_until_quiescent(60_000_000)
        fused_away = [k for k in range(5) if cluster.ownership.owner(k) != 0]
        assert fused_away, "setup failed: nothing fused off node 0"

        migrated_before = cluster.metrics.evictions
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 3, 0, 100, 50))
        cluster.run_until_quiescent(120_000_000)

        placement = cluster.placement_snapshot()
        for key in fused_away:
            # Hot keys stayed wherever fusion put them (not node 3).
            owner = cluster.ownership.owner(key)
            assert key in placement[owner]
        # Cold keys of the range did land on node 3.
        cold = [k for k in range(5, 100) if k not in fused_away]
        assert all(k in placement[3] for k in cold)
        assert cluster.total_records() == NUM_KEYS
        assert cluster.metrics.evictions == migrated_before

    def test_scale_out_event_shifts_routing(self):
        table = FusionTable(FusionConfig(capacity=1000))
        cluster = build(PrescientRouter(), active=[0, 1, 2], overlay=table)
        cluster.announce_topology([0, 1, 2, 3])
        for i in range(1, 40):
            cluster.submit(
                Transaction.read_write(i, [i % 100, 100 + i % 100],
                                       [i % 100, 100 + i % 100])
            )
        cluster.run_until_quiescent(60_000_000)
        assert cluster.view.active_nodes == [0, 1, 2, 3]
        # With balancing on, some transactions route to the new node.
        assert cluster.nodes[3].commits > 0


def mig_events(tracer, name):
    return [e for e in tracer.events
            if e["cat"] == "mig" and e["name"] == name]


class TestStaleCallbackRegression:
    """The bugs this PR fixes: callbacks of a dead plan must never
    resume it after cancel() + start(new_plan)."""

    def test_cancel_restart_drops_stale_chunk_callback(self):
        """An in-sequencer chunk of a cancelled plan commits *after* a new
        plan started.  Pre-fix, its commit callback resumed the cancelled
        remainder interleaved with the new plan (10 submissions, keys
        10..50 migrated anyway); post-fix it is orphaned."""
        tracer = Tracer()
        cluster = build(CalvinRouter(), tracer=tracer)
        controller = MigrationController(cluster)

        plan1 = range_chunks(0, 3, 0, 50, 10)
        session1 = controller.start(plan1)
        # Let chunk 1 reach the sequencer but not the epoch cut.
        cluster.run_until(cluster.kernel.now + 100.0)
        assert session1.in_flight == 1
        remainder = controller.cancel()
        assert len(remainder) == 4

        # Immediately start the reverse plan; chunk 1 of plan1 is still
        # in the sequencer and will commit mid-way through plan2.
        plan2 = range_chunks(3, 0, 0, 50, 10)
        session2 = controller.start(plan2)
        cluster.run_until_quiescent(60_000_000)

        assert controller.chunks_submitted == 6  # 1 (plan1) + 5 (plan2)
        assert session1.chunks_orphaned == 1
        assert session1.chunks_committed == 0
        assert session2.chunks_committed == 5
        assert session2.chunks_orphaned == 0
        assert len(mig_events(tracer, "chunk_orphaned")) == 1
        # The cancelled remainder (keys 10..50) never moved off node 0.
        placement = cluster.placement_snapshot()
        assert all(k in placement[0] for k in range(50))
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert report.ok, report.describe()

    def test_cancel_during_gap_window_disarms_timer(self):
        """cancel() between a chunk commit and its ``kernel.call_later``
        gap wakeup.  Pre-fix the pending timer fired after the restart
        and resubmitted the cancelled plan's chunk 2."""
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)

        session1 = controller.start(range_chunks(0, 3, 0, 50, 10))
        run_until_true(cluster, lambda: session1.chunks_committed >= 1)
        # The 1ms gap timer for chunk 2 is now pending.
        assert session1.in_flight == 0
        remainder = controller.cancel()
        assert len(remainder) == 4

        session2 = controller.start(range_chunks(3, 0, 0, 10, 10))
        cluster.run_until_quiescent(60_000_000)

        assert controller.chunks_submitted == 2  # one per plan
        assert controller.chunks_orphaned == 0
        assert session2.state is MigrationState.DONE
        # Plan1's chunk 2 (keys 10..20) was never submitted: still home.
        placement = cluster.placement_snapshot()
        assert all(k in placement[0] for k in range(10, 50))
        assert cluster.ownership.static.home(15) == 0
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert report.ok, report.describe()


class TestCancelSemantics:
    def test_cancel_without_migration_is_traced_noop(self):
        tracer = Tracer()
        cluster = build(CalvinRouter(), tracer=tracer)
        controller = MigrationController(cluster)
        assert controller.cancel() == []
        assert controller.sessions == []
        assert not controller.active
        assert len(mig_events(tracer, "migration_cancel_noop")) == 1
        assert mig_events(tracer, "migration_cancelled") == []

    def test_cancel_after_completion_is_noop(self):
        tracer = Tracer()
        cluster = build(CalvinRouter(), tracer=tracer)
        controller = MigrationController(cluster)
        session = controller.start(range_chunks(0, 3, 0, 20, 10))
        cluster.run_until_quiescent(60_000_000)
        assert session.state is MigrationState.DONE
        assert controller.cancel() == []
        assert session.state is MigrationState.DONE
        assert len(mig_events(tracer, "migration_cancel_noop")) == 1


class TestTransitionGuards:
    def test_terminal_sessions_refuse_every_transition(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        done = controller.start(range_chunks(0, 3, 0, 20, 10))
        cluster.run_until_quiescent(60_000_000)
        cancelled = controller.start(range_chunks(3, 0, 0, 20, 10))
        controller.cancel()
        assert done.state is MigrationState.DONE
        assert cancelled.state is MigrationState.CANCELLED
        for session in (done, cancelled):
            ended = session.ended_at_us
            for state in MigrationState:
                with pytest.raises(ConfigurationError):
                    session.transition(state)
            assert session.terminal and session.ended_at_us == ended

    def test_illegal_direct_transition_rejected(self):
        cluster = build(CalvinRouter())
        plan = ColdMigrationPlan(())
        session = MigrationSession(1, plan, cluster)
        assert session.state is MigrationState.RUNNING
        session.transition(MigrationState.DONE)
        with pytest.raises(ConfigurationError):
            session.transition(MigrationState.RUNNING)  # DONE -> RUNNING


class TestSessionAudit:
    def test_generations_monotonic_history_recorded(self):
        cluster = build(CalvinRouter())
        controller = MigrationController(cluster)
        s1 = controller.start(range_chunks(0, 3, 0, 10, 10))
        assert s1.state is MigrationState.RUNNING
        assert s1.ended_at_us is None
        cluster.run_until_quiescent(60_000_000)
        s2 = controller.start(range_chunks(3, 0, 0, 10, 10))
        cluster.run_until_quiescent(60_000_000)

        assert (s1.generation, s2.generation) == (1, 2)
        for session in (s1, s2):
            assert session.state is MigrationState.DONE
            assert session.started_at_us < session.ended_at_us
        assert s1.ended_at_us <= s2.started_at_us
        assert controller.chunks_submitted == 2  # cumulative over sessions
        assert controller.chunks_committed == 2

    def test_terminal_session_emits_span_with_stats(self):
        tracer = Tracer()
        cluster = build(CalvinRouter(), tracer=tracer)
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 3, 0, 20, 10))
        cluster.run_until_quiescent(60_000_000)

        spans = [e for e in tracer.events
                 if e["name"] == "migration_session" and e["ph"] == "X"]
        assert len(spans) == 1
        args = spans[0]["args"]
        assert args["state"] == "done"
        assert args["session"] == 1
        assert args["chunks_submitted"] == 2
        assert args["chunks_committed"] == 2
        assert args["records_moved"] == 20
        assert args["bytes_on_wire"] > 0
