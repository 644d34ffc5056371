"""The paper's claims, checked: one test per row of ``claims.CLAIMS``.

Every distinct run is made once, through one fleet, before the first
row is judged.  Each row records one line — its operands, its bound and
its signed margin (how far it is from flipping) — and the session's
terminal summary prints every row's line in table order::

    REPRO_BENCH_SCALE=1.0 REPRO_BENCH_JOBS=2 PYTHONPATH=src \\
        python -m pytest -q benchmarks/test_claims.py

Throughput series of Figures 2, 6(a), 6(b), 12 and 14 go to
``results/<figure>_series.csv``.
"""

from __future__ import annotations

import pytest
from claims import CLAIMS, SERIES, run_all

from repro.bench.presets import bench_jobs
from repro.bench.reporting import write_series_csv


@pytest.fixture(scope="module")
def measured(results_dir):
    results = run_all(jobs=bench_jobs())
    for name, runs in SERIES.items():
        write_series_csv(f"{results_dir}/{name}_series.csv",
                         [results[run.key] for run in runs])
    return results


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, measured, record_property):
    verdict = claim.evaluate(measured)
    line = claim.describe(verdict)
    record_property("claim", (CLAIMS.index(claim), line))
    assert verdict.holds, f"Figure {claim.figure}: {claim.statement}\n{line}"
