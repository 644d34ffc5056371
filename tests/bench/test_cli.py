"""Smoke tests for the ``python -m repro.bench`` CLI."""

import inspect

import pytest

from repro.api import PRESETS
from repro.bench import __main__ as cli
from repro.bench.__main__ import main
from repro.bench.figures import run_google
from repro.bench.presets import GOOGLE_RATE_SCALE


class _Captured(Exception):
    """Raised by the stand-in runner once it has the spec."""


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hermes" in out
        assert "squall" in out

    def test_google_tiny(self, capsys):
        code = main(["google", "calvin", "--duration", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calvin" in out
        assert "throughput/s" in out

    def test_multitenant_tiny(self, capsys):
        code = main(["multitenant", "calvin", "--duration", "0.5"])
        assert code == 0
        assert "calvin" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unset_flags_run_the_kinds_defaults(self, monkeypatch):
        # The CLI must run the operating point the figures use: a flag
        # left unset is not passed, so the kind's default applies.
        specs = []

        def capture(spec):
            specs.append(spec)
            raise _Captured

        monkeypatch.setattr(cli, "run_experiment", capture)
        for argv in (
            ["google", "calvin"],
            ["google", "calvin", "--rate-scale", "2000", "--duration", "3"],
        ):
            with pytest.raises(_Captured):
                main(argv)
        unset, given = specs
        assert unset.duration_s is None
        assert unset.params == {}
        assert given.duration_s == 3.0
        assert given.params == {"rate_scale": 2000.0}
        default = inspect.signature(run_google).parameters["rate_scale"]
        assert default.default == GOOGLE_RATE_SCALE == 4_500.0

    def test_tpcc_hot_defaults_to_the_fig11_preset(self, monkeypatch):
        specs = []

        def capture(spec):
            specs.append(spec)
            raise _Captured

        monkeypatch.setattr(cli, "run_experiment", capture)
        with pytest.raises(_Captured):
            main(["tpcc", "calvin"])
        (spec,) = specs
        fig11 = PRESETS["fig11"]()
        assert spec.params["hot_fraction"] == fig11.params["hot_fraction"]

    def test_unknown_strategy_fails_loudly(self):
        with pytest.raises(Exception):
            main(["google", "mystery", "--duration", "0.5"])
