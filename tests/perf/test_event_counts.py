"""Counted guard on the transaction runtimes: kernel events per commit.

A wall-clock rate moves with the host; the number of kernel events a
seeded run dispatches does not.  Short ``multitenant`` runs in the
perfbench tenant shape (``perfbench/worker.py``'s ``SIM_TENANTS``) pin
``kernel.events_processed`` and ``metrics.commits`` exactly, under two
hash seeds, so a hop that stops skipping the queue fails here at once.
The commits are the model's and must not move; the parent chain that
queued every hop dispatched 25,682 and 26,295 events for them.
Calvin's run is all-local, so it also bounds the chain's cost: two
worker timers per transaction, and few queued hops.
"""

import json
import os
import subprocess
import sys

SNIPPET = """
import json
from repro.api import ExperimentSpec, run_experiment
from repro.workloads.multitenant import MultiTenantConfig

tenants = MultiTenantConfig(
    num_nodes=4, tenants_per_node=4, records_per_tenant=2_500,
    rotation_interval_us=250_000.0,
)
counts = {}
for strategy, duration_s in (("calvin", 0.5), ("hermes", 0.25)):
    (result,) = run_experiment(ExperimentSpec(
        kind="multitenant", strategies=(strategy,), duration_s=duration_s,
        seed=7_000, keep_cluster=True, params={"config": tenants},
    ))
    cluster = result.extras["cluster"]
    counts[strategy] = [
        cluster.kernel.events_processed, cluster.metrics.commits,
    ]
print(json.dumps(counts))
"""

#: [kernel events, post-warm-up commits] per strategy.
COUNTS = {"calvin": [5_906, 2_417], "hermes": [20_794, 1_958]}

#: Calvin's all-local chain: two worker timers per transaction, the
#: hops another event at the same instant follows, and the sequencer's
#: and the closed-loop clients' share.
CALVIN_EVENTS_PER_COMMIT = 3.0


def counts_in_subprocess(hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
    )
    return json.loads(out.stdout)


def test_event_counts_are_pinned_and_hashseed_free():
    first, second = (counts_in_subprocess(seed) for seed in (1, 2))
    assert first == second
    assert first == COUNTS
    events, commits = first["calvin"]
    assert events / commits <= CALVIN_EVENTS_PER_COMMIT
