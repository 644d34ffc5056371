"""Tests for OLLP (reconnaissance + validated footprints, §2.1)."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Transaction
from repro.baselines.calvin import CalvinRouter
from repro.core.prescient import PrescientRouter
from repro.engine.cluster import Cluster
from repro.engine.ollp import OLLP, DependentTxnSpec
from repro.storage.partitioning import make_uniform_ranges

NUM_KEYS = 300
INDEX_KEY = 10  # value selects which data record the txn updates


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


def indexed_update_spec():
    """Update the record the index currently points at.

    Target key = 100 + (index value mod 50): any write to the index key
    between reconnaissance and execution changes the footprint.
    """

    def compute(value_of):
        target = 100 + value_of(INDEX_KEY) % 50
        return frozenset(), frozenset([target])

    return DependentTxnSpec(
        dependency_keys=frozenset([INDEX_KEY]), compute=compute
    )


class TestSpec:
    def test_resolve_includes_dependencies(self):
        spec = indexed_update_spec()
        reads, writes = spec.resolve(lambda _k: 7)
        assert INDEX_KEY in reads
        assert writes == frozenset([107])
        assert writes <= reads

    def test_requires_dependencies(self):
        with pytest.raises(ConfigurationError):
            DependentTxnSpec(frozenset(), lambda v: (frozenset(), frozenset()))


class TestHappyPath:
    def test_stable_footprint_commits_first_try(self):
        cluster = build()
        ollp = OLLP(cluster)
        done = []
        ollp.submit(indexed_update_spec(), on_commit=done.append)
        cluster.run_until_quiescent(30_000_000)
        assert len(done) == 1
        assert ollp.completed == 1
        assert ollp.restarts == 0
        # Index value 0 -> target 100 was written.
        assert cluster.nodes[1].store.read(100).version == 1

    def test_works_under_prescient_routing(self):
        cluster = build(PrescientRouter())
        ollp = OLLP(cluster)
        done = []
        ollp.submit(indexed_update_spec(), on_commit=done.append)
        cluster.run_until_quiescent(30_000_000)
        assert len(done) == 1
        assert cluster.metrics.aborts == 0


class TestStalePrediction:
    def test_intervening_index_write_forces_restart(self):
        """Recon at t=0 sees index value v0; a conflicting write lands in
        the same batch *before* the dependent txn, so validation fails and
        OLLP retries with the new footprint."""
        cluster = build()
        ollp = OLLP(cluster)
        done = []

        # The index writer is submitted first -> earlier in the total
        # order -> executes before the dependent transaction.
        index_writer = Transaction.read_write(
            cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
        )
        cluster.submit(index_writer)
        ollp.submit(indexed_update_spec(), on_commit=done.append)
        cluster.run_until_quiescent(60_000_000)

        assert len(done) == 1
        assert ollp.restarts >= 1
        assert cluster.metrics.aborts >= 1  # the stale attempt
        # The retry used the *new* index value.
        new_value = cluster.nodes[0].store.read(INDEX_KEY).value
        new_target = 100 + new_value % 50
        assert cluster.nodes[1].store.read(new_target).version == 1

    def test_stale_attempt_left_no_writes(self):
        cluster = build()
        ollp = OLLP(cluster)
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
            )
        )
        ollp.submit(indexed_update_spec())
        cluster.run_until_quiescent(60_000_000)
        # Old target (for value 0 -> key 100) must be untouched unless it
        # coincides with the new target.
        new_value = cluster.nodes[0].store.read(INDEX_KEY).value
        if 100 + new_value % 50 != 100:
            assert cluster.nodes[1].store.read(100).version == 0

    def test_determinism_of_restart_flow(self):
        fingerprints = []
        for _run in range(2):
            cluster = build()
            ollp = OLLP(cluster)
            cluster.submit(
                Transaction.read_write(
                    cluster.next_txn_id(), reads=[INDEX_KEY],
                    writes=[INDEX_KEY],
                )
            )
            ollp.submit(indexed_update_spec())
            cluster.run_until_quiescent(60_000_000)
            fingerprints.append(cluster.state_fingerprint())
        assert fingerprints[0] == fingerprints[1]


class TestGuards:
    def test_validator_cannot_read_outside_footprint(self):
        cluster = build()
        bad_spec = DependentTxnSpec(
            dependency_keys=frozenset([INDEX_KEY]),
            # Footprint depends on a key it never declares: the validator
            # re-derivation reads key 11 unlocked -> hard error.
            compute=lambda value_of: (
                frozenset(),
                frozenset([100 + value_of(11) % 50]),
            ),
        )
        ollp = OLLP(cluster)
        ollp.submit(bad_spec)
        with pytest.raises(KeyError):
            cluster.run_until_quiescent(30_000_000)

    def test_max_restarts_bounds_retries(self):
        with pytest.raises(ConfigurationError):
            OLLP(build(), max_restarts=-1)


class TestExhaustion:
    """Restart-budget exhaustion is a deterministic workload outcome: it
    must be *reported*, never raised from inside kernel dispatch."""

    def test_exhaustion_reports_instead_of_raising(self):
        cluster = build()
        ollp = OLLP(cluster, max_restarts=0)
        failures = []
        # The index writer lands earlier in the total order, so attempt 0
        # always validates stale — and the budget allows no retry.
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
            )
        )
        ollp.submit(
            indexed_update_spec(),
            on_fail=lambda spec, runtime: failures.append(
                (spec, runtime.txn.txn_id)
            ),
        )
        cluster.run_until_quiescent(60_000_000)  # must not raise

        # Exhaustion is counted in the cluster metrics, so the harness
        # can report an ollp_exhausted rate per run.
        assert cluster.metrics.ollp_exhausted == 1
        assert ollp.completed == 0
        assert ollp.restarts == 0
        assert len(failures) == 1
        spec, _txn_id = failures[0]
        assert spec.dependency_keys == frozenset([INDEX_KEY])

    def test_kernel_survives_exhaustion(self):
        """The engine keeps committing after a budget exhaustion — the
        pre-fix SimulationError unwound the event loop mid-commit."""
        cluster = build()
        ollp = OLLP(cluster, max_restarts=0)
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
            )
        )
        ollp.submit(indexed_update_spec())  # on_fail omitted: count only
        cluster.run_until_quiescent(60_000_000)
        assert cluster.metrics.ollp_exhausted == 1

        done = []
        cluster.submit(
            Transaction.read_write(cluster.next_txn_id(), [5], [5]),
            on_commit=lambda runtime: done.append(runtime.txn.txn_id),
        )
        cluster.run_until_quiescent(120_000_000)
        assert len(done) == 1
        assert cluster.lock_manager.outstanding() == 0

    def test_sufficient_budget_still_retries(self):
        cluster = build()
        ollp = OLLP(cluster, max_restarts=1)
        failures = []
        done = []
        cluster.submit(
            Transaction.read_write(
                cluster.next_txn_id(), reads=[INDEX_KEY], writes=[INDEX_KEY]
            )
        )
        ollp.submit(
            indexed_update_spec(),
            on_commit=done.append,
            on_fail=lambda spec, runtime: failures.append(spec),
        )
        cluster.run_until_quiescent(60_000_000)
        assert cluster.metrics.ollp_exhausted == 0
        assert failures == []
        assert len(done) == 1
        assert ollp.restarts == 1
