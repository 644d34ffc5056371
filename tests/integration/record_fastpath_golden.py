#!/usr/bin/env python3
"""Regenerate the golden values in ``test_fastpath_determinism.py``.

Run ONLY when a semantic change is intentional (never to 'fix' a fast
path that diverged):  PYTHONPATH=src python tests/integration/record_fastpath_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_fastpath_determinism import ALL_STRATEGIES, chaos_run, mini_run  # noqa: E402

from repro.faults.chaos import verify_trial  # noqa: E402


def main() -> None:
    print("GOLDEN = {")
    for name in ALL_STRATEGIES:
        result = mini_run(name)
        cluster = result.extras["cluster"]
        print(
            f'    "{name}": ({cluster.state_fingerprint():#x}, '
            f"{result.commits}, {cluster.total_records()}),"
        )
    print("}")
    reference, trial = chaos_run()
    problems = verify_trial(trial, reference)
    assert problems == [], problems
    print(f"\nGOLDEN_CHAOS_FINGERPRINT = {trial.fingerprint:#x}")
    print(f"GOLDEN_CHAOS_APPLIED = {len(trial.applied)}")


if __name__ == "__main__":
    main()
