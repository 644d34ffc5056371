"""Differential property: a tracer observes dispatch, it never steers it.

The scheduler drains each routed batch through one loop whose only
per-transaction branch is ``if tracer is not None``.  For any random
workload, seed, and mid-batch fault injection, a run with a
:class:`~repro.obs.Tracer` attached and a run without one must produce
the *identical kernel event digest* — every event's time and sequence
number plus the dispatch and lock-grant notes — not just the same
final state.  A matching digest proves the traced branch (and every
tracer site below it in the lock manager and the runtimes) changed only
what is recorded, never what runs.

Example budgets come from the hypothesis profile registered in
``tests/conftest.py``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRNG
from repro.core import PrescientRouter
from repro.engine.cluster import Cluster
from repro.faults.chaos import MAX_TIME_US, ChaosConfig, make_schedule
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import Tracer
from repro.sanitize.digest import capture_digests
from repro.storage.partitioning import make_uniform_ranges

CFG = ChaosConfig(num_nodes=3, num_keys=400, num_txns=30)


def run_digest(
    cfg: ChaosConfig,
    schedule,
    traced: bool,
    plan: FaultPlan | None = None,
    inject_seed: int = 0,
):
    """One full run; returns (state fingerprint, per-kernel digests)."""
    cluster_config = ClusterConfig(num_nodes=cfg.num_nodes)
    with capture_digests() as digests:
        cluster = Cluster(
            cluster_config,
            PrescientRouter(),
            make_uniform_ranges(cfg.num_keys, cfg.num_nodes),
            tracer=Tracer() if traced else None,
        )
        cluster.load_data(range(cfg.num_keys))
        if plan is not None:
            rng = DeterministicRNG(inject_seed, "dispatch-differential")
            FaultInjector(cluster, plan, rng).install()
        for arrival, txn in schedule:
            cluster.kernel.call_at(arrival, cluster.submit, txn)
        cluster.run_until_quiescent(MAX_TIME_US)
    return cluster.state_fingerprint(), [d.hexdigest() for d in digests]


class TestDispatchDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_txns=st.integers(min_value=5, max_value=40),
    )
    def test_random_workloads_digest_identically(self, seed, num_txns):
        cfg = ChaosConfig(num_nodes=3, num_keys=400, num_txns=num_txns)
        schedule = make_schedule(cfg, seed=seed)
        fp_plain, dig_plain = run_digest(cfg, schedule, traced=False)
        fp_traced, dig_traced = run_digest(cfg, schedule, traced=True)
        assert fp_plain == fp_traced
        assert dig_plain == dig_traced

    @given(plan_seed=st.integers(min_value=0, max_value=2**16))
    def test_mid_batch_faults_digest_identically(self, plan_seed):
        # Fault windows (partitions, loss bursts, jitter) open and close
        # mid-epoch, exercising the retry, drop and re-delivery paths
        # where a tracer site could perturb what it reports.  Crashes
        # are excluded: recovery builds a second cluster, which is
        # covered by the chaos suite's fingerprint checks instead.
        schedule = make_schedule(CFG, seed=17)
        rng = DeterministicRNG(plan_seed, "differential-plan")
        plan = FaultPlan.random(
            rng,
            CFG.num_nodes,
            CFG.horizon_us,
            crash_probability=0.0,
            max_window_us=200_000.0,
        )
        fp_plain, dig_plain = run_digest(
            CFG, schedule, False, plan, inject_seed=plan_seed
        )
        fp_traced, dig_traced = run_digest(
            CFG, schedule, True, plan, inject_seed=plan_seed
        )
        assert fp_plain == fp_traced
        assert dig_plain == dig_traced

    def test_digest_is_sensitive_to_schedule_changes(self):
        # Sanity: the instrument can actually fail — a different seed
        # must produce a different digest, or equality above is vacuous.
        schedule_a = make_schedule(CFG, seed=17)
        schedule_b = make_schedule(CFG, seed=18)
        _, dig_a = run_digest(CFG, schedule_a, traced=False)
        _, dig_b = run_digest(CFG, schedule_b, traced=False)
        assert dig_a != dig_b
