"""Trace determinism and non-perturbation guarantees.

Two properties the observability layer promises:

1. **Tracing is behaviourally inert.**  A traced run produces exactly
   the same simulation as an untraced one — verified against the
   pre-fast-path golden fingerprints that
   ``tests/integration/test_fastpath_determinism.py`` pins (those
   goldens were recorded with no tracer in the codebase at all, so a
   traced run matching them proves the hooks change nothing).

2. **Traces are deterministic.**  Two traced runs of the same
   (config, seed) serialize to byte-identical JSONL.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer
from tests.integration.test_fastpath_determinism import GOLDEN, SEED, mini_run


def traced_mini_run(name: str):
    tracer = Tracer(preset="fastpath-mini", seed=SEED, strategy=name)
    result = mini_run(name, trace=tracer)
    return result, tracer


class TestTracingIsInert:
    def test_traced_run_matches_untraced_goldens(self):
        result, tracer = traced_mini_run("hermes")
        cluster = result.extras["cluster"]
        fingerprint, commits, records = GOLDEN["hermes"]
        assert cluster.state_fingerprint() == fingerprint, (
            "attaching a tracer changed the final database state"
        )
        assert result.commits == commits
        assert cluster.total_records() == records
        # ... and the run actually recorded something substantial.
        assert len(tracer) > 1_000
        counts = {e["cat"] for e in tracer.events}
        assert {"seq", "route", "exec", "load"} <= counts

    def test_harness_stamps_run_metadata(self):
        result, tracer = traced_mini_run("calvin")
        assert tracer.meta["strategy"] == "calvin"
        assert tracer.meta["seed"] == SEED
        assert result.extras["tracer"] is tracer


class TestTraceDeterminism:
    def test_repeat_traced_runs_are_byte_identical(self):
        _, first = traced_mini_run("hermes")
        _, second = traced_mini_run("hermes")
        a = "\n".join(first.jsonl_lines())
        b = "\n".join(second.jsonl_lines())
        assert a == b, "same (config, seed) must trace byte-identically"
