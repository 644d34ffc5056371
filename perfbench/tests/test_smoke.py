"""Smoke test of the benchmark itself: ``pytest perfbench/tests``.

Outside tier-1 ``testpaths`` on purpose: it spends about a minute running
every workload for a second or two, in both trace modes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def test_spec_is_within_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_and_nothing_else(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3",
               "--seconds", "1.5", "--trace", str(trace))
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in named}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"),
    )
    done = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "3",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
