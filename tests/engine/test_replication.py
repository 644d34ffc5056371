"""Tests for WAN replication by determinism (Section 2.1)."""

import pytest

from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.common.types import Transaction
from repro.core.fusion_table import FusionTable
from repro.core.prescient import PrescientRouter
from repro.baselines.calvin import CalvinRouter
from repro.engine.cluster import Cluster
from repro.engine.failover import ReplicatedDeployment
from repro.storage.partitioning import make_uniform_ranges
from repro.workloads.multitenant import MultiTenantConfig, MultiTenantWorkload

NUM_KEYS = 300


def build_factory(router_factory, overlay_factory=None):
    def build():
        cluster = Cluster(
            ClusterConfig(
                num_nodes=3,
                engine=EngineConfig(epoch_us=5_000.0, workers_per_node=2),
            ),
            router_factory(),
            make_uniform_ranges(NUM_KEYS, 3),
            overlay=overlay_factory() if overlay_factory else None,
        )
        cluster.load_data(range(NUM_KEYS))
        return cluster

    return build


def some_txns(count=30, seed=3):
    wl = MultiTenantWorkload(
        MultiTenantConfig(num_nodes=3, tenants_per_node=1,
                          records_per_tenant=100,
                          rotation_interval_us=100_000.0),
        DeterministicRNG(seed),
    )
    return [wl.make_txn(i + 1, 0.0) for i in range(count)]


class TestConvergence:
    @pytest.mark.parametrize(
        "router_factory,overlay_factory",
        [
            (CalvinRouter, None),
            (
                PrescientRouter,
                lambda: FusionTable(FusionConfig(capacity=100)),
            ),
        ],
    )
    def test_replicas_converge(self, router_factory, overlay_factory):
        deployment = ReplicatedDeployment(
            build_factory(router_factory, overlay_factory),
            num_replicas=2,
            wan_delay_us=30_000.0,
        )
        for txn in some_txns():
            deployment.submit(txn)
        deployment.drain(60_000_000)
        assert deployment.converged(), deployment.divergence_report()
        assert deployment.primary.metrics.commits == 30
        for replica in deployment.replicas:
            assert replica.metrics.commits == 30

    def test_replicas_lag_but_never_diverge(self):
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=1,
            wan_delay_us=100_000.0,
        )
        for txn in some_txns(10):
            deployment.submit(txn)
        # Mid-flight, the replica is behind the primary.
        deployment.run_until(40_000.0)
        primary_done = deployment.primary.epochs_delivered
        replica_done = deployment.replicas[0].epochs_delivered
        assert replica_done <= primary_done
        deployment.drain(60_000_000)
        assert deployment.converged()

    def test_zero_wan_delay(self):
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=1, wan_delay_us=0.0
        )
        for txn in some_txns(5):
            deployment.submit(txn)
        deployment.drain(60_000_000)
        assert deployment.converged()


class TestFailover:
    def test_promoted_replica_continues(self):
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=1,
            wan_delay_us=20_000.0,
        )
        for txn in some_txns(20):
            deployment.submit(txn)
        deployment.drain(60_000_000)

        dead = deployment.primary
        promoted = deployment.fail_over(0)
        assert promoted is deployment.primary
        assert promoted.state_fingerprint() == dead.state_fingerprint()
        # The survivor accepts new work immediately — no recovery pause.
        follow_up = Transaction.read_write(
            9_999, reads=[5], writes=[5],
            arrival_time=promoted.kernel.now,
        )
        promoted.submit(follow_up)
        promoted.run_until_quiescent(promoted.kernel.now + 60_000_000)
        assert promoted.metrics.commits == 21

    def test_submit_after_failover_routes_to_promoted(self):
        # Regression: fail_over used to leave the deployment unusable
        # (submit raised) and the dead primary's forwarding installed.
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=2,
            wan_delay_us=10_000.0,
        )
        for txn in some_txns(10):
            deployment.submit(txn)
        deployment.drain(60_000_000)
        promoted = deployment.fail_over(0)
        deployment.submit(
            Transaction.read_write(
                5_000, reads=[7], writes=[7],
                arrival_time=promoted.kernel.now,
            )
        )
        deployment.drain(120_000_000)
        assert promoted.metrics.commits == 11
        # The surviving replica kept receiving input — from the promoted
        # primary, not the dead one.
        assert deployment.replicas[0].metrics.commits == 11
        assert deployment.converged(), deployment.divergence_report()

    def test_mid_flight_failover_no_divergence(self):
        # The acceptance scenario: kill the primary while its last batch
        # is still crossing the WAN.  The promoted replica buffers its
        # own new epochs behind the in-flight ones (reorder buffer),
        # serves new submissions, and drains with zero divergence.
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=2,
            wan_delay_us=20_000.0,
        )
        for txn in some_txns(20):
            deployment.submit(txn)
        # Epoch 1 is cut at 5 ms, delivered at 5.4 ms, and lands on the
        # replicas at ~25.4 ms; fail over at 10 ms, mid-WAN-flight.
        deployment.run_until(10_000.0, step_us=1_000.0)
        promoted = deployment.fail_over(0)
        report = deployment.failovers[-1]
        assert report.lost_count == 0  # everything had been forwarded
        for i in range(10):
            deployment.submit(
                Transaction.read_write(
                    6_000 + i, reads=[i], writes=[i],
                    arrival_time=promoted.kernel.now,
                )
            )
        deployment.drain(120_000_000)
        assert deployment.divergence_report() == []
        assert promoted.metrics.commits == 30
        assert deployment.replicas[0].metrics.commits == 30

    def test_failover_reports_lost_window(self):
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=1,
            wan_delay_us=20_000.0,
        )
        txns = some_txns(20)
        for txn in txns:
            deployment.submit(txn)
        # Stop inside the ordering latency of epoch 1 (cut at 5 ms,
        # delivery at 5.4 ms): the whole batch is sequenced-in-flight.
        deployment.run_until(5_200.0, step_us=100.0)
        backlog = [
            Transaction.read_write(
                7_000 + i, reads=[i], writes=[i],
                arrival_time=deployment.primary.kernel.now,
            )
            for i in range(5)
        ]
        for txn in backlog:
            deployment.submit(txn)
        promoted = deployment.fail_over(0)
        report = deployment.failovers[-1]
        expected = {t.txn_id for t in txns} | {t.txn_id for t in backlog}
        assert set(report.lost_txn_ids) == expected
        assert report.lost_batches == 1
        assert report.at_us == pytest.approx(5_200.0)
        assert report.window_start_us <= report.window_end_us
        # The lost window never reaches the survivor: only new input does.
        deployment.submit(
            Transaction.read_write(
                8_000, reads=[3], writes=[3],
                arrival_time=promoted.kernel.now,
            )
        )
        deployment.drain(120_000_000)
        assert promoted.metrics.commits == 1
        assert deployment.divergence_report() == []

    def test_dead_primary_tee_detached(self):
        # Regression: the dead primary's forwarding_deliver stayed
        # installed, so a still-running "dead" sequencer kept teeing
        # batches at the survivors.
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=2,
            wan_delay_us=10_000.0,
        )
        for txn in some_txns(10):
            deployment.submit(txn)
        deployment.drain(60_000_000)
        dead = deployment.primary
        deployment.fail_over(0)
        survivor = deployment.replicas[0]
        forwarded_before = deployment.forwarded_batches
        epochs_before = survivor.epochs_delivered

        dead.submit(some_txns(1, seed=9)[0])
        dead.run_until_quiescent(dead.kernel.now + 60_000_000)
        survivor.run_until(survivor.kernel.now + 60_000_000)
        assert deployment.forwarded_batches == forwarded_before
        assert survivor.epochs_delivered == epochs_before

    def test_bad_replica_index(self):
        deployment = ReplicatedDeployment(
            build_factory(CalvinRouter), num_replicas=1
        )
        with pytest.raises(ConfigurationError):
            deployment.fail_over(5)


class TestValidation:
    def test_needs_replicas(self):
        with pytest.raises(ConfigurationError):
            ReplicatedDeployment(build_factory(CalvinRouter), num_replicas=0)

    def test_negative_wan_delay(self):
        with pytest.raises(ConfigurationError):
            ReplicatedDeployment(
                build_factory(CalvinRouter), wan_delay_us=-1.0
            )
