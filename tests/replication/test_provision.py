"""ReplicaProvisioner demand ranking and the install-plan builder."""

import pytest

from repro.common.errors import RoutingError
from repro.common.types import Batch, Transaction, TxnKind
from repro.core.provisioning import ChunkMigration
from repro.core.router import (
    ClusterView,
    OwnershipView,
    build_chunk_migration_plan,
    build_replica_install_plan,
)
from repro.replication import provision
from repro.replication.directory import ReplicaDirectory
from repro.replication.provision import ReplicaProvisioner
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 400
NUM_NODES = 4  # uniform ranges: node n owns [n*100, (n+1)*100)


def make_view() -> ClusterView:
    ownership = OwnershipView(make_uniform_ranges(NUM_KEYS, NUM_NODES))
    return ClusterView(range(NUM_NODES), ownership)


def make_provisioner(**overrides) -> ReplicaProvisioner:
    params = dict(range_records=50, key_lo=0, key_hi=NUM_KEYS)
    params.update(overrides)
    return ReplicaProvisioner(**params)


def read_only(txn_id, keys):
    return Transaction.read_only(txn_id, keys)


class TestDemandRanking:
    def test_multi_owner_reads_charge_demand_to_majority_owner(self):
        # Two keys on node 0, one on node 2: node 0 masters, and wants
        # a replica of key 250's range (range 5).
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 250])])
        chunks = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert len(chunks) == 1
        (chunk,) = chunks
        assert chunk.dst == 0
        assert chunk.copy is True
        assert chunk.keys == tuple(range(250, 300))
        assert chunk.src == 2  # current owner of the copied span

    def test_single_owner_txns_charge_nothing(self):
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 30])])
        chunks = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert chunks == []

    def test_ranking_prefers_higher_demand(self, monkeypatch):
        monkeypatch.setattr(provision, "MAX_RANGES_PER_CYCLE", 1)
        txns = [read_only(i, [10 + i, 250]) for i in range(3)]
        txns.append(read_only(99, [40, 350]))
        batch = Batch(epoch=0, txns=txns)
        chunks = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        (chunk,) = chunks
        # range 5 (keys 250-299) gathered 3 demand points vs 1.
        assert chunk.keys[0] == 250

    def test_written_keys_never_charge_demand(self):
        batch = Batch(epoch=0, txns=[
            Transaction.read_write(1, [10, 250], [250]),
        ])
        chunks = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert chunks == []

    def test_write_hot_ranges_excluded(self):
        # Key 260's range is read by one txn but written by another:
        # a copy would be invalid before anything read it.
        batch = Batch(epoch=0, txns=[
            read_only(1, [10, 260]),
            Transaction.read_write(2, [270], [270]),
        ])
        chunks = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert chunks == []

    def test_already_valid_holder_skipped(self):
        directory = ReplicaDirectory(50)
        directory.install(5, 0, epoch=1)  # node 0 already holds range 5
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 250])])
        chunks = make_provisioner().plan(batch, make_view(), directory)
        assert chunks == []

    def test_max_ranges_per_cycle_caps_output(self, monkeypatch):
        monkeypatch.setattr(provision, "MAX_RANGES_PER_CYCLE", 2)
        txns = [
            read_only(i, [10 + i, 20 + i, 110 + 10 * i])
            for i in range(4)
        ]
        batch = Batch(epoch=0, txns=txns)
        chunks = make_provisioner(range_records=10).plan(
            batch, make_view(), ReplicaDirectory(10)
        )
        assert len(chunks) == 2

    def test_span_clamped_to_keyspace(self):
        provisioner = make_provisioner(key_hi=375)
        batch = Batch(epoch=0, txns=[read_only(1, [10, 20, 360])])
        (chunk,) = provisioner.plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert chunk.keys == tuple(range(350, 375))

    def test_deterministic_across_calls(self):
        txns = [read_only(i, [10 + i, 250, 350]) for i in range(5)]
        batch = Batch(epoch=0, txns=txns)
        first = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        second = make_provisioner().plan(
            batch, make_view(), ReplicaDirectory(50)
        )
        assert first == second


def install_txn(txn_id=77, keys=tuple(range(250, 300)), dst=0, src=2):
    chunk = ChunkMigration(src=src, dst=dst, keys=tuple(keys), copy=True)
    return Transaction(
        txn_id=txn_id,
        read_set=frozenset(chunk.keys),
        write_set=frozenset(),
        kind=TxnKind.MIGRATION,
        payload=chunk,
    )


class TestInstallPlanBuilder:
    def test_copies_every_chunk_key_from_current_owner(self):
        view = make_view()
        plan = build_replica_install_plan(install_txn(), view)
        assert plan.masters == (0,)
        assert plan.replica_installs == frozenset(range(250, 300))
        assert plan.reads_from == {2: frozenset(range(250, 300))}
        assert plan.migrations == ()
        plan.validate()

    def test_dst_owned_keys_still_copied(self):
        # Range granularity: the destination's side-store must cover
        # the whole range even where dst is the primary owner.
        view = make_view()
        keys = tuple(range(80, 120))  # straddles the node 0/1 boundary
        plan = build_replica_install_plan(
            install_txn(keys=keys, dst=0, src=1), view
        )
        assert plan.reads_from[0] == frozenset(range(80, 100))
        assert plan.reads_from[1] == frozenset(range(100, 120))
        assert plan.replica_installs == frozenset(keys)

    def test_ownership_view_untouched(self):
        view = make_view()
        before = view.ownership.version_token()
        build_replica_install_plan(install_txn(), view)
        assert view.ownership.version_token() == before

    def test_rejects_non_copy_chunks(self):
        chunk = ChunkMigration(src=2, dst=0, keys=tuple(range(250, 300)))
        txn = Transaction(
            txn_id=1, read_set=frozenset(chunk.keys),
            write_set=frozenset(), kind=TxnKind.MIGRATION, payload=chunk,
        )
        with pytest.raises(RoutingError):
            build_replica_install_plan(txn, make_view())

    def test_chunk_migration_planner_rejects_copy_chunks(self):
        with pytest.raises(RoutingError):
            build_chunk_migration_plan(install_txn(), make_view())
