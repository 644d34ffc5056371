"""The ``python -m repro.serve`` command line."""

import json

import pytest

from repro.serve import __main__ as cli
from repro.serve.core import ServeConfig
from repro.serve.journal import JOURNAL_VERSION
from repro.serve.loadgen import LoadgenConfig


class _Captured(Exception):
    """Raised by the stand-in load generator once it has the configs."""


def test_loadgen_defaults_are_the_dataclass_defaults(monkeypatch):
    seen = []

    async def capture(serve_config, load_config):
        seen.append((serve_config, load_config))
        raise _Captured

    monkeypatch.setattr(cli, "run_loadgen", capture)
    with pytest.raises(_Captured):
        cli.main(["loadgen"])
    assert seen == [(ServeConfig(), LoadgenConfig())]


def test_replay_of_malformed_journal_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"kind": "header", "version": JOURNAL_VERSION}) + "\n"
    )
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:1: header config is not a JSON object" in captured.err
