"""Focused tests of TxnRuntime mechanics: lock modes and release stages."""


from repro.common.config import ClusterConfig, EngineConfig
from repro.common.types import Transaction
from repro.baselines.calvin import CalvinRouter
from repro.baselines.gstore import GStoreRouter
from repro.core.prescient import PrescientRouter
from repro.engine.cluster import Cluster
from repro.engine.executor import TxnRuntime, CONTROL_BYTES
from repro.engine.locks import LockMode
from repro.core.plan import Migration, TxnPlan
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 300


def build(router=None):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=3,
            engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
        ),
        router or CalvinRouter(),
        make_uniform_ranges(NUM_KEYS, 3),
    )
    cluster.load_data(range(NUM_KEYS))
    return cluster


def make_runtime(cluster, plan):
    return TxnRuntime(
        cluster=cluster,
        plan=plan,
        seq=1,
        t_sequenced=0.0,
        t_dispatched=0.0,
        on_finished=lambda _r: None,
    )


class TestLockModes:
    def test_read_only_keys_take_shared(self):
        cluster = build()
        txn = Transaction.read_write(1, reads=[5, 150], writes=[150])
        plan = TxnPlan(
            txn=txn,
            masters=(1,),
            reads_from={0: frozenset([5]), 1: frozenset([150])},
            writes_at={1: frozenset([150])},
        )
        runtime = make_runtime(cluster, plan)
        modes = dict(runtime.lock_requests())
        assert modes[5] is LockMode.S
        assert modes[150] is LockMode.X

    def test_migrated_keys_take_exclusive(self):
        cluster = build()
        txn = Transaction.read_only(1, reads=[5, 150])
        plan = TxnPlan(
            txn=txn,
            masters=(1,),
            reads_from={0: frozenset([5]), 1: frozenset([150])},
            migrations=(Migration(5, 0, 1),),
        )
        runtime = make_runtime(cluster, plan)
        modes = dict(runtime.lock_requests())
        assert modes[5] is LockMode.X  # moving, despite read-only access

    def test_eviction_keys_locked_exclusively(self):
        cluster = build()
        txn = Transaction.read_write(1, reads=[5], writes=[5])
        plan = TxnPlan(
            txn=txn,
            masters=(0,),
            reads_from={0: frozenset([5])},
            writes_at={0: frozenset([5])},
            evictions=(Migration(250, 0, 2),),
        )
        runtime = make_runtime(cluster, plan)
        modes = dict(runtime.lock_requests())
        assert modes[250] is LockMode.X
        assert len(modes) == 2

    def test_lock_requests_deduplicated(self):
        cluster = build()
        txn = Transaction.read_write(1, reads=[5], writes=[5])
        plan = TxnPlan(
            txn=txn,
            masters=(0,),
            reads_from={0: frozenset([5])},
            writes_at={0: frozenset([5])},
        )
        runtime = make_runtime(cluster, plan)
        keys = [key for key, _mode in runtime.lock_requests()]
        assert keys == sorted(set(keys), key=repr)


class TestSharedReaders:
    def test_hermes_remote_reads_share_locks(self):
        """Write-set-only fusion: two read-only txns on the same remote key
        execute concurrently (S locks) — the §3.2.2 design point."""
        cluster = build(PrescientRouter())
        results = []
        t1 = Transaction.read_only(1, [150])
        t2 = Transaction.read_only(2, [150])
        cluster.submit(t1, on_commit=results.append)
        cluster.submit(t2, on_commit=results.append)
        cluster.run_until_quiescent(30_000_000)
        assert len(results) == 2
        # Both committed and their lock-grant times coincide (same batch,
        # both granted immediately as shared).
        a, b = results
        assert a.t_locks == b.t_locks

    def test_gstore_grouping_serializes_readers(self):
        """G-Store pulls even read-only keys into an exclusive group, so
        two readers of one remote key serialize."""
        cluster = build(GStoreRouter())
        results = []
        # Both transactions' majority owner is node 0, and both must pull
        # key 150 from node 1 into their (exclusive) group.
        t1 = Transaction.read_write(1, reads=[5, 6, 150], writes=[5])
        t2 = Transaction.read_write(2, reads=[7, 8, 150], writes=[7])
        cluster.submit(t1, on_commit=results.append)
        cluster.submit(t2, on_commit=results.append)
        cluster.run_until_quiescent(30_000_000)
        assert len(results) == 2
        by_id = {r.txn.txn_id: r for r in results}
        # Key 150 is exclusively held by the group until the write-back
        # lands, so the second transaction's remote read of 150 can only
        # be served after the first has fully committed.
        assert by_id[2].t_data > by_id[1].t_commit


class TestNetworkAccounting:
    def test_remote_read_payload_counted(self):
        cluster = build()
        txn = Transaction.read_write(1, reads=[5, 150], writes=[150])
        cluster.submit(txn)
        cluster.run_until_quiescent(30_000_000)
        # One read message (node0 -> node1) with one record payload.
        expected = CONTROL_BYTES + txn.profile.record_bytes
        assert cluster.network.total_bytes() == expected

    def test_local_txn_touches_no_network(self):
        cluster = build()
        cluster.submit(Transaction.read_write(1, reads=[5, 6], writes=[5]))
        cluster.run_until_quiescent(30_000_000)
        assert cluster.network.total_bytes() == 0


def gated_runtime():
    """A runtime whose node-1 serve location locks keys 150 and 151."""
    cluster = build()
    txn = Transaction.read_write(1, reads=[5, 150, 151], writes=[150])
    plan = TxnPlan(
        txn=txn,
        masters=(1,),
        reads_from={0: frozenset([5]), 1: frozenset([150, 151])},
        writes_at={1: frozenset([150])},
    )
    runtime = make_runtime(cluster, plan)
    (group,) = [g for g in runtime._all_groups if g.keys == {150, 151}]
    return cluster.kernel, runtime, group


class TestLockGroupGates:
    def test_parked_hops_wake_in_registration_order(self):
        kernel, runtime, group = gated_runtime()
        fired = []

        def scenario():
            runtime._park(group, fired.append, "first")
            runtime._park(group, fired.append, "second")
            runtime.on_lock_granted(150)
            fired.append("one grant left")
            runtime.on_lock_granted(151)
            fired.append("opened")

        kernel.call_soon(scenario)
        kernel.run_until(1.0)
        assert fired == ["one grant left", "opened", "first", "second"]
        assert group.granted_at == 0.0

    def test_hop_parked_on_an_open_group_takes_its_own_hop(self):
        kernel, runtime, group = gated_runtime()
        fired = []

        def scenario():
            runtime.on_lock_granted(150)
            runtime.on_lock_granted(151)
            kernel.call_soon(fired.append, "queued first")
            runtime._park(group, fired.append, "late")
            fired.append("inline")

        kernel.call_soon(scenario)
        kernel.run_until(1.0)
        # Not run inline, and queued behind the event scheduled before it.
        assert fired == ["inline", "queued first", "late"]
