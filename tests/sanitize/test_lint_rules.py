"""The nondeterminism lint: every rule proven on the corpus, the
suppression syntax round-tripped, and the shipped tree held clean."""

import re
from pathlib import Path

import pytest

from repro.common.rng import DeterministicRNG
from repro.sanitize.corpus import BAD, CLEAN
from repro.sanitize.lint import RULES, lint_paths, lint_source
from repro.sanitize.__main__ import main as sanitize_main

REPO_ROOT = Path(__file__).resolve().parents[2]

_BAD_CASES = [
    pytest.param(code, snippet, id=f"{code}-{snippet.name}")
    for code, snippets in sorted(BAD.items())
    for snippet in snippets
]

_CLEAN_CASES = [
    pytest.param(snippet, id=snippet.name) for snippet in CLEAN
]


class TestRuleCorpus:
    @pytest.mark.parametrize("code,snippet", _BAD_CASES)
    def test_bad_snippet_fires_exactly_its_rule(self, code, snippet):
        findings = lint_source(snippet.source, path=snippet.name)
        assert findings, f"{code}/{snippet.name}: no findings"
        codes = {f.code for f in findings}
        assert codes == {code}, (
            f"{code}/{snippet.name}: expected only {code}, got {codes}"
        )
        lines = {f.line for f in findings}
        assert snippet.line in lines, (
            f"{code}/{snippet.name}: expected a finding on line "
            f"{snippet.line}, got lines {sorted(lines)}"
        )

    @pytest.mark.parametrize("snippet", _CLEAN_CASES)
    def test_clean_snippet_is_clean(self, snippet):
        findings = lint_source(snippet.source, path=snippet.name)
        assert findings == [], [f.format() for f in findings]

    def test_every_rule_has_bad_coverage(self):
        assert set(BAD) == set(RULES)

    def test_numpy_global_hint_names_an_existing_accessor(self):
        (snippet,) = [s for s in BAD["ND103"] if s.name == "numpy-global"]
        (finding,) = lint_source(snippet.source, path=snippet.name)
        named = re.findall(r"DeterministicRNG\.(\w+)", finding.message)
        assert named, finding.message
        for attribute in named:
            assert hasattr(DeterministicRNG, attribute), finding.message


class TestSuppression:
    def test_reasoned_suppression_silences_a_finding(self):
        noisy = "pending = set(batch)\nfor txn in pending:\n    go(txn)\n"
        assert lint_source(noisy, path="t.py")

        quiet = noisy.replace(
            "for txn in pending:",
            "for txn in pending:  "
            "# sanitize: ok(txn ids are ints; int hashing is unsalted)",
        )
        assert lint_source(quiet, path="t.py") == []

    def test_empty_reason_is_itself_a_finding(self):
        source = (
            "pending = set(batch)\n"
            "for txn in pending:  # saniti" + "ze: ok()\n"
            "    go(txn)\n"
        )
        findings = lint_source(source, path="t.py")
        # The reasonless opt-out does not silence the underlying finding
        # and is flagged itself.
        assert {f.code for f in findings} == {"ND100", "ND101"}

    def test_suppression_only_covers_its_own_line(self):
        source = (
            "stamp = time.time()  "
            "# sanitize: ok(harness wall clock)\n"
            "other = time.time()\n"
        )
        findings = lint_source(source, path="t.py")
        assert [(f.code, f.line) for f in findings] == [("ND102", 2)]


class TestShippedTree:
    def test_src_repro_lints_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        status = sanitize_main(["lint", str(REPO_ROOT / "src" / "repro")])
        assert status == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_dirty_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "dirty.py"
        bad.write_text("for x in {1, 2, 3}:\n    print(x)\n")
        status = sanitize_main(["lint", str(bad)])
        assert status == 1
        out = capsys.readouterr().out
        assert "ND101" in out

    def test_rules_listing(self, capsys):
        assert sanitize_main(["rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out
