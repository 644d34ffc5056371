"""Each process imports only what it runs (DESIGN §2, "What a process
imports").

Sub-package ``__init__`` files re-export nothing, and third-party
imports sit where they are used, so the serving process never loads
numpy, networkx or the offline half of the repository, and no timed
call pays for a first import.  Both checks run in a fresh interpreter:
the test process itself has imported everything long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What ``perfbench/server.py`` imports: the serving process.
SERVER_IMPORTS = (
    "from repro.bench.harness import peak_rss_mb\n"
    "from repro.serve import JournalWriter, ServeConfig, ServeCore\n"
    "from repro.serve.driver import ServeDriver\n"
    "from repro.serve.frontend import Frontend\n"
)

#: What ``perfbench/worker.py`` imports: the simulator and replay rounds.
WORKER_IMPORTS = (
    "from repro.api import ExperimentSpec, run_experiment\n"
    "from repro.bench.harness import peak_rss_mb\n"
    "from repro.serve import (\n"
    "    JournalWriter, ServeConfig, ServeCore, verify_journal,\n"
    ")\n"
    "from repro.workloads.multitenant import MultiTenantConfig\n"
)

#: Modules (or packages, with everything under them) the server must
#: not load: the offline baselines' and trace generator's third-party
#: dependencies, and the experiment, chaos, sanitizer and forecasting
#: layers that serving never runs.
NOT_SERVED = (
    "numpy",
    "networkx",
    "repro.api",
    "repro.bench.figures",
    "repro.faults.chaos",
    "repro.sanitize.lint",
    "repro.sanitize.replay",
    "repro.forecast",
    "repro.replication",
)

LOADED = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

#: Imports the worker's modules, then runs what its timed calls run —
#: a short Hermes and a short Calvin multi-tenant slice, a served tick,
#: ``finish()`` and ``verify_journal`` — and prints every module that
#: was first imported on the way.
TIMED_CALLS = WORKER_IMPORTS + """\
import json, os, sys, tempfile

config = MultiTenantConfig(
    num_nodes=4, tenants_per_node=4, records_per_tenant=250,
    rotation_interval_us=250_000.0,
)
before = set(sys.modules)
for strategy in ("hermes", "calvin"):
    run_experiment(ExperimentSpec(
        kind="multitenant", strategies=(strategy,), duration_s=0.2,
        seed=1000, keep_cluster=True, params={"config": config},
    ))
with tempfile.TemporaryDirectory() as scratch:
    path = os.path.join(scratch, "timed.journal")
    core = ServeCore(ServeConfig(), journal=JournalWriter(path))
    core.tick([{"reads": [1, 2], "writes": [1]}, {"reads": [3]}])
    report = core.finish()
    verified = verify_journal(path)
assert report.commits == 2 and verified.ok, (report, verified)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run(source: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, env=env, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _matching(loaded: list[str], names: tuple[str, ...]) -> list[str]:
    return [
        module for module in loaded
        if any(module == n or module.startswith(n + ".") for n in names)
    ]


def test_server_imports_only_the_serving_stack():
    loaded = _run(SERVER_IMPORTS + LOADED)
    assert "repro.serve.core" in loaded  # the probe imported something
    assert _matching(loaded, NOT_SERVED) == []


def test_experiment_layer_defers_networkx():
    # Schism is a strategy of the experiment layer, but networkx is only
    # imported when a Schism partition is built.
    loaded = _run(
        "import repro.api, repro.workloads.multitenant\n" + LOADED
    )
    assert "repro.bench.figures" in loaded
    assert _matching(loaded, ("networkx",)) == []


def test_no_module_is_first_imported_inside_a_timed_call():
    assert _run(TIMED_CALLS) == []
