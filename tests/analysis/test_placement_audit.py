"""Tests for the placement invariant auditor.

The auditor cross-checks physical stores, the ownership view, and the
WAL-visible migration history.  Clean clusters — fresh, post-migration,
and fusion-heavy — must pass; each manufactured corruption must be
flagged with the right counter.
"""

from repro.analysis.placement_audit import MAX_PROBLEM_DETAILS, audit_placement
from repro.baselines.calvin import CalvinRouter
from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.types import Transaction
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.core.provisioning import range_chunks
from repro.engine.cluster import Cluster
from repro.engine.migration import MigrationController
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 300


def build(router=None, overlay=None, keep_command_log=True):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=3,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        router or CalvinRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
        overlay=overlay,
        keep_command_log=keep_command_log,
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


class TestCleanClusters:
    def test_fresh_cluster_passes(self):
        report = audit_placement(build(), expected_total=NUM_KEYS)
        assert report.ok, report.describe()
        assert report.stores_checked == 3
        assert report.keys_checked == NUM_KEYS
        assert report.migration_txns_seen == 0

    def test_post_migration_cluster_passes_with_wal_history(self):
        cluster = build()
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 2, 0, 100, 25))
        cluster.run_until_quiescent(60_000_000)
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert report.ok, report.describe()
        assert report.migration_txns_seen == 4  # 100 keys / 25 per chunk

    def test_without_command_log_skips_history_check(self):
        cluster = build(keep_command_log=False)
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 2, 0, 100, 50))
        cluster.run_until_quiescent(60_000_000)
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert report.ok, report.describe()
        assert report.migration_txns_seen == 0

    def test_fusion_workload_passes(self):
        table = FusionTable(FusionConfig(capacity=100))
        cluster = build(PrescientRouter(), overlay=table)
        for i in range(10):
            cluster.submit(
                Transaction.read_write(1000 + i, [i, 150 + i], [i, 150 + i])
            )
        cluster.run_until_quiescent(60_000_000)
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert report.ok, report.describe()


class TestViolations:
    def test_record_at_wrong_node_is_orphaned(self):
        cluster = build()
        record = cluster.nodes[0].store.evict(5)
        cluster.nodes[2].store.install(record)
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert not report.ok
        assert report.orphaned_records == 1
        assert any("record 5" in p for p in report.problems)

    def test_duplicate_record_flagged(self):
        cluster = build()
        record = cluster.nodes[0].store.read(5).copy()
        cluster.nodes[1].store.install(record)
        report = audit_placement(cluster)
        assert not report.ok
        assert report.duplicate_records == 1

    def test_overlay_home_entry_flagged(self):
        table = FusionTable(FusionConfig(capacity=100))
        cluster = build(PrescientRouter(), overlay=table)
        # Key 5's static home is node 0; an overlay entry repeating the
        # home violates "the overlay holds only displaced records".
        table.put(5, 0)
        report = audit_placement(cluster)
        assert not report.ok
        assert any("home entry" in p for p in report.problems)

    def test_overlay_pointing_at_absent_record_flagged(self):
        table = FusionTable(FusionConfig(capacity=100))
        cluster = build(PrescientRouter(), overlay=table)
        # The view claims key 5 fused to node 2, but nothing moved.
        table.put(5, 2)
        report = audit_placement(cluster)
        assert not report.ok
        # Both directions are caught: the record sits where the view no
        # longer expects it, and the overlay names a store without it.
        assert report.orphaned_records == 1
        assert any("overlay says 5" in p for p in report.problems)

    def test_wal_history_mismatch_flagged(self):
        cluster = build()
        controller = MigrationController(cluster)
        controller.start(range_chunks(0, 2, 0, 20, 20))
        cluster.run_until_quiescent(60_000_000)
        assert audit_placement(cluster).ok
        # Roll the static map back behind the WAL's recorded migration —
        # as a lost/stale-resumed migration would leave it.
        cluster.ownership.static.reassign(0, 20, 0)
        report = audit_placement(cluster)
        assert not report.ok
        assert any("WAL migration history" in p for p in report.problems)

    def test_conservation_violation_flagged(self):
        cluster = build()
        cluster.nodes[0].store.evict(5)  # drop a record on the floor
        report = audit_placement(cluster, expected_total=NUM_KEYS)
        assert not report.ok
        assert any("conservation" in p for p in report.problems)

    def test_problem_details_capped_but_counted(self):
        cluster = build()
        # Move more records than the detail cap to a wrong node.
        for key in range(MAX_PROBLEM_DETAILS + 10):
            record = cluster.nodes[0].store.evict(key)
            cluster.nodes[2].store.install(record)
        report = audit_placement(cluster)
        assert not report.ok
        assert report.orphaned_records == MAX_PROBLEM_DETAILS + 10
        assert len(report.problems) == MAX_PROBLEM_DETAILS
        assert "more" in report.describe().splitlines()[-1]
