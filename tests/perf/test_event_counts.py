"""Counted guard on the transaction runtimes: kernel events per commit.

A wall-clock rate moves with the host; the number of kernel events a
seeded run dispatches does not.  Short ``multitenant`` runs in the
perfbench tenant shape (``perfbench/worker.py``'s ``SIM_TENANTS``) pin
``kernel.events_processed`` and ``metrics.commits`` exactly, under two
hash seeds, so a hop that stops skipping the queue fails here at once.
The commits are the model's and must not move; with every hop of both
runtimes queued, the two runs dispatched 25,682 and 26,295 events for
them.  Calvin's run is all-local and Hermes' mostly distributed, so
each also bounds its runtime's cost per commit: the worker timers and
network deliveries, and only the hops that another event at the same
instant really follows.

The serving path is counted the same way: a seeded ``ServeCore`` with a
journal, in the shape of perfbench's ``serve_replay`` (25 ticks of 40
write-heavy requests), pins its kernel events, commits and journal
bytes.  Python call counts are not pinned: CPython 3.12 inlines
comprehensions (PEP 709), so one call ledger cannot hold on 3.11 and
3.12 alike.
"""

import json
import os
import subprocess
import sys

SNIPPET = """
import json
import os
import random
import tempfile
from repro.api import ExperimentSpec, run_experiment
from repro.serve import JournalWriter, ServeConfig, ServeCore
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

rng = random.Random(7_000)
config = ServeConfig()
with tempfile.TemporaryDirectory() as scratch:
    path = os.path.join(scratch, "serve.journal")
    core = ServeCore(config, journal=JournalWriter(path))
    for _ in range(25):
        requests = []
        for _ in range(40):
            keys = sorted(rng.sample(range(config.num_keys), 4))
            request = {"reads": keys}
            if rng.random() < 0.8:
                request["writes"] = keys[:2]
            requests.append(request)
        core.tick(requests)
    report = core.finish()
    counts["serve"] = [
        core.cluster.kernel.events_processed, report.commits,
        os.path.getsize(path),
    ]
print(json.dumps(counts))
"""

#: [kernel events, post-warm-up commits] per strategy, and [kernel
#: events, commits, journal bytes] for the serve slice.
COUNTS = {
    "calvin": [5_906, 2_417],
    "hermes": [8_292, 1_958],
    "serve": [9_127, 1_000, 49_396],
}

#: Calvin's all-local chain: two worker timers per transaction, the
#: hops another event at the same instant follows, and the sequencer's
#: and the closed-loop clients' share.
CALVIN_EVENTS_PER_COMMIT = 3.0
#: Hermes' chains, most of them distributed: a worker timer per serve
#: location and per master, a delivery per remote read, the eviction
#: bursts, and the same unqueued hops (4.23 today; 10.6 with the
#: distributed runtime's hops queued).
HERMES_EVENTS_PER_COMMIT = 4.5


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
    events, commits = first["hermes"]
    assert events / commits <= HERMES_EVENTS_PER_COMMIT
