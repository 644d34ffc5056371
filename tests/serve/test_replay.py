"""Journal replay determinism: the byte-identical guarantee.

Records one short serve run (with writes, a flash-crowd tick, and an
elastic add-node event), then replays the journal and asserts the
replayed state fingerprint and event digest match the live run byte
for byte — in-process, and in fresh interpreters pinned to two
different ``PYTHONHASHSEED`` values.  A run whose determinism leaks
through hash ordering would reproduce in-process (same seed) but
diverge across interpreters; the dual-seed matrix is what actually
pins the guarantee.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter, read_journal
from repro.serve.replayer import verify_journal

CONFIG = ServeConfig(
    num_keys=400,
    num_nodes=4,
    initial_nodes=3,
    strategy="hermes",
    epoch_us=5_000.0,
)


def synthesize(tick, per_tick=5):
    """Deterministic request mix: reads, read-modify-writes, crowd."""
    requests = []
    for i in range(per_tick):
        key = (tick * 37 + i * 11) % 400
        if (tick + i) % 3 == 0:
            requests.append({"reads": [key], "writes": [key]})
        else:
            requests.append({"reads": sorted({key, (key + 13) % 400})})
    if tick == 6:  # flash crowd on a single hot key
        requests.extend({"reads": [7]} for _ in range(20))
    return requests


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("journal") / "serve.jsonl")
    core = ServeCore(CONFIG, journal=JournalWriter(path))
    for tick in range(12):
        resizes = [("add", 3)] if tick == 4 else []
        core.tick(synthesize(tick), resizes=resizes)
    report = core.finish()
    return path, report


class TestInProcessReplay:
    def test_replay_reproduces_fingerprint_and_digest(self, recorded):
        path, report = recorded
        replayed = verify_journal(path).replayed
        assert replayed.fingerprint == report.fingerprint
        assert replayed.digest == report.digest
        assert replayed.commits == report.commits
        assert replayed.ticks == report.ticks

    def test_verify_passes_against_footer(self, recorded):
        path, _report = recorded
        outcome = verify_journal(path)
        assert outcome.ok, outcome.mismatches

    def test_replay_covers_the_resize(self, recorded):
        path, report = recorded
        assert report.extras["resizes"] == 1
        assert report.extras["active_nodes"] == [0, 1, 2, 3]
        replayed = verify_journal(path).replayed
        assert replayed.extras["resizes"] == 1
        assert replayed.extras["active_nodes"] == [0, 1, 2, 3]

    def test_tampered_journal_fails_verification(self, recorded, tmp_path):
        path, _report = recorded
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        assert record["kind"] == "tick"
        assert record["requests"][0].get("writes"), "expected a write"
        tampered_key = (record["requests"][0]["writes"][0] + 1) % 400
        record["requests"][0]["reads"] = [tampered_key]
        record["requests"][0]["writes"] = [tampered_key]
        lines[1] = json.dumps(record, sort_keys=True)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        outcome = verify_journal(str(tampered))
        assert not outcome.ok
        assert any("fingerprint" in m for m in outcome.mismatches)

    def test_headless_journal_still_replays(self, recorded, tmp_path):
        # A crashed run has no footer: replay works, verify flags it.
        path, report = recorded
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[-1])["kind"] == "footer"
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("\n".join(lines[:-1]) + "\n")
        outcome = verify_journal(str(crashed))
        assert outcome.replayed.fingerprint == report.fingerprint
        assert not outcome.ok
        assert any("footer" in m for m in outcome.mismatches)


REPLAY_SNIPPET = """
import json, sys
from repro.serve.replayer import verify_journal
replayed = verify_journal(sys.argv[1]).replayed
print(json.dumps({
    "fingerprint": replayed.fingerprint,
    "digest": replayed.digest,
    "commits": replayed.commits,
}))
"""


def replay_in_subprocess(path, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    out = subprocess.run(
        [sys.executable, "-c", REPLAY_SNIPPET, path],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
    )
    return json.loads(out.stdout)


class TestDualHashseedReplay:
    def test_replay_is_hashseed_independent(self, recorded):
        path, report = recorded
        footer = read_journal(path).footer
        results = [
            replay_in_subprocess(path, hashseed) for hashseed in (1, 2)
        ]
        assert results[0] == results[1]
        for result in results:
            assert result["fingerprint"] == footer["fingerprint"]
            assert result["fingerprint"] == report.fingerprint
            assert result["digest"] == footer["digest"]
            assert result["digest"] == report.digest
            assert result["commits"] == footer["commits"]
