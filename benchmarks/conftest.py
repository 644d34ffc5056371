"""Shared helpers for the benchmarks: the ``results/`` directory and the
claims table printed at the end of a session."""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def pytest_terminal_summary(terminalreporter):
    """Print every claim row ``test_claims.py`` judged, in table order."""
    rows = sorted(
        value
        for reports in terminalreporter.stats.values()
        for report in reports if getattr(report, "when", None) == "call"
        for name, value in report.user_properties
        if name == "claim"
    )
    if rows:
        terminalreporter.section("paper claims")
        for _, line in rows:
            terminalreporter.write_line(line)
