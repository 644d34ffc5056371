"""Incremental event-stream digests for divergence detection.

A :class:`StreamDigest` folds every dispatched kernel event and every
engine-boundary note into one running BLAKE2b hash.  Two runs of the
same experiment must produce the same digest; any scheduling
reordering, however small, changes it.  Final-state fingerprints cannot
see reorderings that happen to converge; the stream digest can.

What is hashed
--------------
The hash input is built to be cheap, because serving pays for it on
every tick.  A kernel event contributes two fixed-width numbers — its
simulated time and its global sequence number — which the kernel's run
loops append straight to a list (:attr:`StreamDigest.fold` is that
list's C-level ``append``; no Python frame is entered per event).  An
engine note (``seq.cut``, ``sched.dispatch``, ``lock.grant``, ...)
keeps its full semantic payload and leaves a marker among the numbers,
so its place between the kernel events is pinned too.  Every thousand
events the run loop has the pending block folded: the numbers are packed
and hashed in one call, the notes rendered by one C-level JSON call.
Numbers and notes feed two running hashes whose inputs simply
concatenate, so where a block happens to end never shows in the digest.

With ``record=True`` the digest additionally keeps one text line per
folded item — for kernel events including the callback's qualname and
a stable rendering of its arguments — so the dual-replay harness can
name the first divergent event.  Recording never changes the hash:
everything hashed also appears in the lines, so two streams whose
digests differ have differing lines.

Stability across processes
--------------------------
The digest must be identical across *processes* (the dual-replay harness
compares a parent run against a subprocess run under a perturbed
``PYTHONHASHSEED``), so nothing address- or hash-order-dependent may
enter it: numbers are packed little-endian, note payloads render
scalars by value, sequences element-wise and anything else by *type
name only* (object ``repr`` may embed ``id()`` hex), and recorded lines
name callbacks by ``__qualname__``.

Enabling
--------
There is no ambient "digesting on" flag consulted per event.  A kernel
built while :func:`capture_digests` is active auto-attaches a fresh
digest (and the context collects them in kernel-creation order, which is
deterministic); ``Kernel.attach_digest`` opts a single kernel in
manually.  Detached — the default — the kernel dispatch loop pays one
local ``None`` check per event, bounded by the ``digest_overhead`` perf
scenario.
"""

from __future__ import annotations

import hashlib
import json
import struct
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.sim import kernel as _kernel_mod

#: digest size in bytes; 16 is ample for divergence detection.
_DIGEST_SIZE = 16

#: what a note leaves among the event numbers (times and sequence
#: numbers are never negative).
_NOTE_MARK = -1.0


def _type_name(value: Any) -> str:
    return type(value).__name__


#: One C call renders a whole block of notes: scalars by value, tuples
#: and lists alike as arrays, anything else through ``_type_name``.
_encode_notes = json.JSONEncoder(
    separators=(",", ":"), default=_type_name
).encode


def stable_repr(value: Any) -> str:
    """A process-stable rendering of an event payload value.

    Scalars render exactly (``repr`` of ``float`` round-trips); tuples
    and lists recurse; anything else contributes only its type name,
    because arbitrary ``repr`` output may embed memory addresses that
    differ between the parent and subprocess legs of a dual replay.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        inner = ",".join(stable_repr(v) for v in value)
        return f"[{inner}]"
    return type(value).__name__


def _callback_name(fn: Callable) -> str:
    """A process-stable identity for a dispatched callback."""
    name = getattr(fn, "__qualname__", None)
    if name is None:
        name = type(fn).__name__
    return name


class StreamDigest:
    """One kernel's running event-stream hash.

    Kernel protocol: a run loop calls ``fold(when); fold(seq)`` per
    dispatched event — or :meth:`tap`, which also renders the event's
    line, when :attr:`record` is set — and :meth:`fold_block` every
    thousand events.  :meth:`note` is the engine-boundary hook
    (sequencer cuts, scheduler dispatch order, lock grants) carrying
    semantic payload that makes a divergence report readable.  With
    ``record=True`` every folded item also leaves a text line so
    :func:`repro.sanitize.replay.dual_replay` can binary-compare two
    streams and name the first divergent event.
    """

    __slots__ = (
        "_events", "_semantic", "_numbers", "_notes", "_folded",
        "fold", "record", "lines",
    )

    def __init__(self, record: bool = False) -> None:
        self._events = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        self._semantic = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        #: the pending block: when, seq per event, a mark per note.
        self._numbers: list[float] = []
        #: the pending block's notes: (kind, payload).
        self._notes: list[tuple] = []
        self._folded = 0
        #: append one number of the event stream (C-level, no frame).
        self.fold = self._numbers.append
        self.record = record
        self.lines: list[str] = []

    # -- hooks -------------------------------------------------------------

    def tap(self, when: float, seq: int, fn: Callable, args: tuple) -> None:
        """Fold one dispatched kernel event and, if recording, its line."""
        self.fold(when)
        self.fold(seq)
        if self.record:
            self.lines.append(
                f"k|{when!r}|{seq}|{_callback_name(fn)}|"
                f"{','.join(stable_repr(a) for a in args)}"
            )

    def note(self, kind: str, *payload: Any) -> None:
        """Fold one semantic engine-boundary event.

        ``kind`` names the boundary (``seq.cut``, ``sched.dispatch``,
        ``lock.grant``, ...); payload values are scalars or (nested)
        sequences of scalars — anything else folds as its type name.
        """
        self.fold(_NOTE_MARK)
        self._notes.append((kind, payload))
        if self.record:
            self.lines.append(
                f"e|{kind}|{','.join(stable_repr(p) for p in payload)}"
            )

    def fold_block(self) -> None:
        """Hash everything pending; cheap when nothing is."""
        numbers, notes = self._numbers, self._notes
        if not numbers:
            return
        self._events.update(struct.pack(f"<{len(numbers)}d", *numbers))
        if notes:
            # Brackets off, comma on: blocks concatenate to the same
            # text wherever they were cut.
            text = _encode_notes(notes)[1:-1] + ","
            self._semantic.update(text.encode("utf-8"))
        # Two numbers per event, one mark per note.
        self._folded += (len(numbers) + len(notes)) // 2
        numbers.clear()
        notes.clear()

    # -- results -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Kernel events plus notes folded so far."""
        pending = (len(self._numbers) + len(self._notes)) // 2
        return self._folded + pending

    def hexdigest(self) -> str:
        """Hex digest of everything folded so far."""
        self.fold_block()
        combined = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        combined.update(self._events.digest())
        combined.update(self._semantic.digest())
        return combined.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamDigest({self.count} events, {self.hexdigest()})"


def fold_kernel_digests(kernels: Iterable[tuple[int, str]]) -> str:
    """One hex string for a run's per-kernel ``(events, hexdigest)``
    pairs, in kernel-creation order (crash recovery adds a kernel)."""
    folded = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for events, hexdigest in kernels:
        folded.update(f"{events}:{hexdigest};".encode())
    return folded.hexdigest()


@contextmanager
def capture_digests(record: bool = False) -> Iterator[list[StreamDigest]]:
    """Attach a fresh :class:`StreamDigest` to every kernel built inside.

    Yields the list the digests accumulate into, in kernel-creation
    order — deterministic for a serial experiment, which is why the
    replay harness forces ``jobs=None``.  The previous factory (normally
    none) is restored on exit, so captures never leak into later runs.
    """
    collected: list[StreamDigest] = []

    def factory() -> StreamDigest:
        digest = StreamDigest(record=record)
        collected.append(digest)
        return digest

    previous = _kernel_mod.get_digest_factory()
    _kernel_mod.set_digest_factory(factory)
    try:
        yield collected
    finally:
        _kernel_mod.set_digest_factory(previous)
