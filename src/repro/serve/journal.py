"""The append-only arrival journal (JSON lines).

The journal is the *entire* deterministic history of a serve run: the
config that built the cluster, then one record per tick holding the
admitted arrivals and any elastic resize events, then a footer sealing
the run with its state fingerprint and event digest.  Shed requests
never appear — admission happens ahead of the journal.

Format (one JSON object per line, ``sort_keys`` for byte stability)::

    {"kind": "header", "version": 3, "config": {...}}
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
from repro.serve.core import ServeConfig

__all__ = ["Journal", "JournalWriter", "TickRecord", "read_journal"]

#: Version 2: the footer digest is the block-hashed numeric encoding of
#: :mod:`repro.sanitize.digest`; a version-1 footer cannot be verified.
#: Version 3: the header config is exactly :class:`ServeConfig`'s fields;
#: a version-2 header also carries four engine settings it no longer has.
JOURNAL_VERSION = 3


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

    config: ServeConfig
    ticks: tuple[TickRecord, ...]
    footer: Mapping | None = field(default=None)


def read_journal(path: str) -> Journal:
    """Parse a journal file, validating record order and version.

    Every defect — a torn or malformed line, a record out of order, a
    tick number that does not continue ``0, 1, 2, ...``, a header config
    that is not exactly :class:`ServeConfig`'s keys, a tick whose
    requests or resizes are malformed — raises
    :class:`ConfigurationError` naming ``path:line``.
    """
    config: ServeConfig | None = None
    ticks: list[TickRecord] = []
    footer: Mapping | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
                kind = record.get("kind")
                if kind == "header":
                    if config is not None:
                        raise ConfigurationError("duplicate header")
                    config = _header_config(record)
                elif kind == "tick":
                    if config is None:
                        raise ConfigurationError("tick before header")
                    ticks.append(_tick_record(record, len(ticks)))
                elif kind == "footer":
                    footer = {k: v for k, v in record.items() if k != "kind"}
                else:
                    raise ConfigurationError(f"unknown record kind {kind!r}")
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
    if config is None:
        raise ConfigurationError(f"{path}: journal has no header")
    return Journal(config=config, ticks=tuple(ticks), footer=footer)


def _parse_record(line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed record ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ConfigurationError("record is not a JSON object")
    return record


def _header_config(record: dict) -> ServeConfig:
    if record.get("version") != JOURNAL_VERSION:
        raise ConfigurationError(
            f"unsupported journal version {record.get('version')!r}"
        )
    config = record.get("config")
    if not isinstance(config, dict):
        raise ConfigurationError("header config is not a JSON object")
    try:
        return ServeConfig.from_json(config)
    except TypeError as exc:  # a value of the wrong type
        raise ConfigurationError(f"bad header config: {exc}") from None


def _tick_record(record: dict, expected: int) -> TickRecord:
    if record.get("tick") != expected:
        raise ConfigurationError(
            f"tick {record.get('tick')!r} out of sequence, "
            f"expected {expected}"
        )
    requests = record.get("requests", [])
    if not isinstance(requests, list) or not all(
        isinstance(request, dict) for request in requests
    ):
        raise ConfigurationError("requests must be JSON objects")
    resizes = record.get("resizes", [])
    if not isinstance(resizes, list) or not all(
        isinstance(resize, list) and len(resize) == 2 for resize in resizes
    ):
        raise ConfigurationError("resizes must be [kind, node] pairs")
    return TickRecord(
        tick=expected,
        requests=tuple(requests),
        resizes=tuple((kind, node) for kind, node in resizes),
    )
