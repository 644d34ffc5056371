"""Journal format: write-ahead records, parsing, and byte stability."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.serve.journal import JournalWriter, read_journal


def write_small(path, footer=True):
    with JournalWriter(str(path)) as journal:
        journal.header({"num_keys": 8, "strategy": "calvin"})
        journal.tick(0, [{"reads": [1, 2]}, {"reads": [3], "writes": [3]}])
        journal.tick(1, [{"reads": [4]}], resizes=[("add", 3)])
        if footer:
            journal.footer(
                ticks=2, accepted=3, commits=3,
                fingerprint=12345, digest="ab" * 32,
            )
    return str(path)


class TestWriter:
    def test_round_trip(self, tmp_path):
        path = write_small(tmp_path / "j.jsonl")
        journal = read_journal(path)
        assert journal.config == {"num_keys": 8, "strategy": "calvin"}
        assert len(journal.ticks) == 2
        assert journal.ticks[0].requests == (
            {"reads": [1, 2]}, {"reads": [3], "writes": [3]},
        )
        assert journal.ticks[0].resizes == ()
        assert journal.ticks[1].resizes == (("add", 3),)
        assert journal.footer["fingerprint"] == 12345

    def test_missing_footer_reads_as_none(self, tmp_path):
        path = write_small(tmp_path / "j.jsonl", footer=False)
        assert read_journal(path).footer is None

    def test_tick_before_header_rejected(self, tmp_path):
        journal = JournalWriter(str(tmp_path / "j.jsonl"))
        with pytest.raises(ConfigurationError, match="before header"):
            journal.tick(0, [])

    def test_duplicate_header_rejected(self, tmp_path):
        journal = JournalWriter(str(tmp_path / "j.jsonl"))
        journal.header({})
        with pytest.raises(ConfigurationError, match="already written"):
            journal.header({})

    def test_write_after_close_rejected(self, tmp_path):
        journal = JournalWriter(str(tmp_path / "j.jsonl"))
        journal.header({})
        journal.close()
        with pytest.raises(ConfigurationError, match="closed"):
            journal.tick(0, [])

    def test_byte_stable_key_order(self, tmp_path):
        # Two writers fed dict-key permutations of the same payload must
        # produce identical bytes — the replay guarantee is byte-level.
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        with JournalWriter(str(first)) as journal:
            journal.header({"x": 1, "y": 2})
            journal.tick(0, [{"reads": [1], "writes": [1]}])
        with JournalWriter(str(second)) as journal:
            journal.header({"y": 2, "x": 1})
            journal.tick(0, [{"writes": [1], "reads": [1]}])
        assert first.read_bytes() == second.read_bytes()


class TestReader:
    def test_no_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "tick", "tick": 0}) + "\n")
        with pytest.raises(ConfigurationError, match="tick before header"):
            read_journal(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="no header"):
            read_journal(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ConfigurationError, match="unknown record"):
            read_journal(str(path))

    # Version 1 footers carry the pre-numeric digest encoding: they must
    # be refused up front, not fail verification mysteriously later.
    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": version, "config": {}})
            + "\n"
        )
        with pytest.raises(
            ConfigurationError,
            match=f"unsupported journal version {version}",
        ):
            read_journal(str(path))
