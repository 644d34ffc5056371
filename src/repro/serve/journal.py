"""The append-only arrival journal (JSON lines).

The journal is the *entire* deterministic history of a serve run: the
config that built the cluster, then one record per tick holding the
admitted arrivals and any elastic resize events, then a footer sealing
the run with its state fingerprint and event digest.  Shed requests
never appear — admission happens ahead of the journal.

Format (one JSON object per line, ``sort_keys`` for byte stability)::

    {"kind": "header", "version": 2, "config": {...}}
    {"kind": "tick", "tick": 0, "requests": [...], "resizes": [...]}
    ...
    {"kind": "footer", "ticks": N, "accepted": A, "commits": C,
     "fingerprint": F, "digest": "..."}

Each tick record is flushed before the tick executes (write-ahead): a
run killed mid-tick leaves a journal whose replay reproduces every
completed tick.  A journal without a footer is a crashed run — replay
still works, there is just no recorded expectation to verify against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError

__all__ = ["Journal", "JournalWriter", "TickRecord", "read_journal"]

#: Version 2: the footer digest is the block-hashed numeric encoding of
#: :mod:`repro.sanitize.digest`; a version-1 footer cannot be verified.
JOURNAL_VERSION = 2


def _dumps(record: Mapping) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    )


class JournalWriter:
    """Write-ahead arrival journal; one JSON object per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: IO[str] | None = open(path, "w", encoding="utf-8")
        self._wrote_header = False
        self._sealed = False

    def _write(self, record: Mapping) -> None:
        if self._file is None:
            raise ConfigurationError("journal already closed")
        self._file.write(_dumps(record) + "\n")
        self._file.flush()

    def header(self, config: Mapping) -> None:
        if self._wrote_header:
            raise ConfigurationError("journal header already written")
        self._write({
            "kind": "header",
            "version": JOURNAL_VERSION,
            "config": dict(config),
        })
        self._wrote_header = True

    def tick(
        self,
        tick: int,
        requests: Sequence[Mapping],
        resizes: Iterable[tuple[str, int]] = (),
    ) -> None:
        if not self._wrote_header:
            raise ConfigurationError("journal tick before header")
        record = {
            "kind": "tick",
            "tick": tick,
            "requests": [
                {
                    key: list(value)
                    for key, value in sorted(request.items())
                }
                for request in requests
            ],
        }
        resizes = [[kind, node] for kind, node in resizes]
        if resizes:
            record["resizes"] = resizes
        self._write(record)

    def footer(self, **fields) -> None:
        if self._sealed:
            raise ConfigurationError("journal footer already written")
        self._write({"kind": "footer", **fields})
        self._sealed = True

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class TickRecord:
    """One journaled tick: arrivals plus elastic events."""

    tick: int
    requests: tuple
    resizes: tuple


@dataclass(frozen=True, slots=True)
class Journal:
    """A fully parsed journal file."""

    config: Mapping
    ticks: tuple[TickRecord, ...]
    footer: Mapping | None = field(default=None)


def read_journal(path: str) -> Journal:
    """Parse a journal file, validating record order and version."""
    config: Mapping | None = None
    ticks: list[TickRecord] = []
    footer: Mapping | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "header":
                if config is not None:
                    raise ConfigurationError(
                        f"{path}:{line_no}: duplicate header"
                    )
                if record.get("version") != JOURNAL_VERSION:
                    raise ConfigurationError(
                        f"{path}:{line_no}: unsupported journal "
                        f"version {record.get('version')!r}"
                    )
                config = record["config"]
            elif kind == "tick":
                if config is None:
                    raise ConfigurationError(
                        f"{path}:{line_no}: tick before header"
                    )
                ticks.append(TickRecord(
                    tick=record["tick"],
                    requests=tuple(record.get("requests", ())),
                    resizes=tuple(
                        (kind_, node)
                        for kind_, node in record.get("resizes", ())
                    ),
                ))
            elif kind == "footer":
                footer = {
                    key: value
                    for key, value in record.items()
                    if key != "kind"
                }
            else:
                raise ConfigurationError(
                    f"{path}:{line_no}: unknown record kind {kind!r}"
                )
    if config is None:
        raise ConfigurationError(f"{path}: journal has no header")
    return Journal(
        config=config, ticks=tuple(ticks), footer=footer
    )
