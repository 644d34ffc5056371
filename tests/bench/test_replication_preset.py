"""Acceptance test for the replication experiment kind.

One small ``replication`` run pitting plain Hermes against the
replica-provisioned variant on the same Google-YCSB workload.  The
claims under test are the PR's acceptance criteria: the variant
actually provisions and serves replica reads, trades replication bytes
against migration bytes, reports the trade-off axes in its extras, and
leaves primary record placement byte-compatible (replica installs copy,
never move).

Deliberately heavier than a unit test (~1.5 simulated seconds across
two clusters); everything is asserted off one shared module fixture.
"""

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.bench import figures
from repro.bench.presets import GOOGLE_BENCH

PARAMS = {
    "ycsb_overrides": {"rw_ratio": 0.2},
    "replication": {"provision_interval": 2},
}


@pytest.fixture(scope="module", autouse=True)
def small_cluster():
    """Four nodes, 4,000 keys in 25-record replica ranges and a lighter
    offered load."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(GOOGLE_BENCH, "num_nodes", 4)
        patch.setitem(GOOGLE_BENCH, "num_keys", 4_000)
        patch.setattr(figures, "MIN_RANGE_RECORDS", 25)
        patch.setattr(figures, "GOOGLE_RATE_SCALE", 2_500.0)
        yield


def make_spec(**overrides):
    base = dict(
        kind="replication",
        strategies=("hermes", "hermes-replica"),
        seed=7,
        duration_s=1.5,
        jobs=1,
        params=PARAMS,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def comparison():
    baseline, replicated = run_experiment(make_spec())
    return baseline, replicated


class TestReplicationPreset:
    def test_result_shape(self, comparison):
        baseline, replicated = comparison
        assert baseline.strategy == "hermes"
        assert replicated.strategy == "hermes-replica"
        assert baseline.commits > 0 and replicated.commits > 0
        for result in comparison:
            assert 0.0 < result.extras["distributed_txn_ratio"] < 1.0
            assert result.latency_p99_us > 0
            assert "migration_bytes" in result.extras
            assert "replication_bytes" in result.extras

    def test_replicas_provisioned_and_served(self, comparison):
        _baseline, replicated = comparison
        stats = replicated.extras["router_stats"]
        assert stats["replica_provision_cycles"] > 0
        assert stats["replica_installs"] > 0
        assert replicated.extras["replica_reads"] > 0
        assert replicated.extras["replication_bytes"] > 0

    def test_baseline_spends_no_replication_bytes(self, comparison):
        baseline, _replicated = comparison
        assert baseline.extras["replication_bytes"] == 0
        assert baseline.extras["replica_reads"] == 0
        assert baseline.extras["cloned_reads"] == 0

    def test_dual_replay_identical(self, comparison):
        _baseline, first = comparison
        (second,) = run_experiment(
            make_spec(strategies=("hermes-replica",))
        )
        assert first.commits == second.commits
        assert first.latency_p99_us == second.latency_p99_us
        assert first.extras["replica_reads"] == second.extras[
            "replica_reads"
        ]
        assert first.extras["replication_bytes"] == second.extras[
            "replication_bytes"
        ]
        assert first.extras["router_stats"] == second.extras[
            "router_stats"
        ]
