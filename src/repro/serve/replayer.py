"""Deterministic replay of a serve journal.

Replay rebuilds the cluster from the journal header's config, feeds
every journaled tick back through the same :class:`ServeCore` entry
point, and drains exactly the way the live run's ``finish`` did.
Because simulated time is slaved to ticks and every source of
nondeterminism was either journaled (arrivals, resizes) or derived from
them (txn ids, migration schedules), the replayed run reproduces the
original state fingerprint *and* the full event digest byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.core import ServeConfig, ServeCore, ServeReport
from repro.serve.journal import Journal, read_journal

__all__ = ["replay_journal", "verify_journal", "VerifyResult"]


def _replay(journal: Journal) -> ServeReport:
    config = ServeConfig.from_json(journal.config)
    core = ServeCore(config)
    for record in journal.ticks:
        core.tick(record.requests, resizes=record.resizes)
    return core.finish()


def replay_journal(path: str) -> ServeReport:
    """Re-execute a journal; returns the replayed run's report."""
    return _replay(read_journal(path))


@dataclass(frozen=True, slots=True)
class VerifyResult:
    """Footer-vs-replay comparison for one journal."""

    ok: bool
    mismatches: tuple[str, ...]
    recorded: dict
    replayed: ServeReport


def verify_journal(path: str) -> VerifyResult:
    """Replay a journal and compare against its recorded footer.

    A journal without a footer (crashed run) fails verification with an
    explicit mismatch entry rather than an exception — the caller
    decides whether that is fatal.
    """
    journal = read_journal(path)
    replayed = _replay(journal)
    footer = dict(journal.footer or {})
    mismatches = []
    if not footer:
        mismatches.append("journal has no footer (crashed run?)")
    for name, got in (
        ("fingerprint", replayed.fingerprint),
        ("digest", replayed.digest),
        ("commits", replayed.commits),
        ("ticks", replayed.ticks),
        ("accepted", replayed.accepted),
    ):
        if name in footer and footer[name] != got:
            mismatches.append(
                f"{name}: recorded {footer[name]!r} != replayed {got!r}"
            )
    return VerifyResult(
        ok=not mismatches,
        mismatches=tuple(mismatches),
        recorded=footer,
        replayed=replayed,
    )
