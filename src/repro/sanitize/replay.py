"""Dual replay: run an experiment twice (and under perturbed hash seeds),
compare event-stream digests, and localize the first divergent event.

The detector has three legs, each catching a different nondeterminism
class:

* **repeat leg** — the same :class:`~repro.api.ExperimentSpec` run twice
  in this process.  Catches leaked global state, ``id()``-keyed
  ordering, and anything address-dependent.
* **hash leg** — the same spec run in a subprocess under a *different*
  ``PYTHONHASHSEED``.  Catches hash-order dependence (unordered ``set``
  iteration feeding scheduling), which is invisible within one process
  because the salt is fixed at interpreter start.
* **localization** — on mismatch, the diverging pair is re-run with
  per-event recording, the two streams are binary-compared to the first
  differing line, and a traced re-run supplies the surrounding
  :mod:`repro.obs` span context.

``REPRO_SANITIZE_INJECT=set-iteration`` deliberately installs a
hash-order bug in the sequencer (see :func:`_maybe_inject`) so the test
suite can prove the detector catches and localizes exactly the failure
mode it exists for — the same validate-the-validator discipline
:mod:`repro.faults` applies to recovery.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.api import ExperimentSpec, run_experiment
from repro.bench.sharded import canonical_payload, payload_digest
from repro.sanitize.digest import capture_digests

__all__ = [
    "DivergenceReport",
    "ReplayReport",
    "RunDigest",
    "dual_replay",
    "run_digest",
    "run_digest_subprocess",
    "spec_from_payload",
    "spec_payload",
]

#: env var that arms the deliberate-nondeterminism injection hook.
INJECT_ENV = "REPRO_SANITIZE_INJECT"

#: half-width of the simulated-time window for trace span context.
_CONTEXT_WINDOW_US = 25_000.0

#: max trace events included in a divergence report.
_CONTEXT_EVENTS = 16


# ----------------------------------------------------------------------
# Spec (de)serialization — the subprocess leg ships the spec as JSON
# ----------------------------------------------------------------------


def spec_payload(spec: ExperimentSpec) -> dict:
    """The JSON-safe dict a subprocess rebuilds the spec from.

    Cross-process comparison forbids anything non-serializable: a spec
    carrying a live tracer or non-JSON params is rejected up front.
    """
    payload = {
        "kind": spec.kind,
        "strategies": list(spec.strategies),
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "warmup_us": spec.warmup_us,
        "window_us": spec.window_us,
        "scale": spec.scale,
        "params": spec.params,
    }
    try:
        json.dumps(payload)
    except TypeError as exc:
        raise ValueError(
            "dual replay needs a JSON-serializable spec (plain params, "
            f"no live objects): {exc}"
        ) from exc
    return payload


def spec_from_payload(payload: dict) -> ExperimentSpec:
    """Rebuild a spec shipped via :func:`spec_payload`."""
    params = payload.get("params") or {}
    # JSON turns tuples into lists; period pairs etc. survive as lists,
    # which every consumer unpacks positionally.
    return ExperimentSpec(
        kind=payload["kind"],
        strategies=tuple(payload["strategies"]),
        seed=payload["seed"],
        duration_s=payload.get("duration_s"),
        warmup_us=payload.get("warmup_us"),
        window_us=payload.get("window_us"),
        scale=payload.get("scale"),
        params=params,
    )


# ----------------------------------------------------------------------
# Digest runs
# ----------------------------------------------------------------------


@dataclass(slots=True)
class KernelDigest:
    """One kernel's digest within a run (kernel-creation order)."""

    events: int
    hexdigest: str
    lines: list[str] | None = None

    def to_json(self) -> dict:
        out: dict = {"events": self.events, "hexdigest": self.hexdigest}
        if self.lines is not None:
            out["lines"] = self.lines
        return out

    @classmethod
    def from_json(cls, data: dict) -> "KernelDigest":
        return cls(
            events=data["events"],
            hexdigest=data["hexdigest"],
            lines=data.get("lines"),
        )


@dataclass(slots=True)
class RunDigest:
    """The digest fingerprint of one full experiment run: every
    kernel's event stream plus the canonical result payload (the model
    numbers a figure is drawn from, which the event digests only imply).
    """

    label: str
    kernels: list[KernelDigest]
    result: str

    @property
    def combined(self) -> str:
        """One hex string summarizing every kernel, in creation order."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for kernel in self.kernels:
            h.update(f"{kernel.events}:{kernel.hexdigest};".encode())
        return h.hexdigest()

    @property
    def events(self) -> int:
        return sum(k.events for k in self.kernels)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kernels": [k.to_json() for k in self.kernels],
            "result": self.result,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunDigest":
        return cls(
            label=data["label"],
            kernels=[KernelDigest.from_json(k) for k in data["kernels"]],
            result=data["result"],
        )


@contextmanager
def _maybe_inject() -> Iterator[None]:
    """Install the deliberate set-iteration bug when the env var asks.

    The bug reorders the sequencer's pending queue through a genuine
    ``set`` of string keys before each batch cut — exactly the hazard
    class the lint's ND101 rule and the hash leg of dual replay exist to
    catch.  String hashing is salted by ``PYTHONHASHSEED``, so the bug
    is *invisible* to the in-process repeat leg and *caught* by the
    subprocess leg, proving the harness separates the two.
    """
    if os.environ.get(INJECT_ENV, "") != "set-iteration":
        yield
        return
    from repro.engine.sequencer import Sequencer

    original = Sequencer._cut_batch

    def buggy_cut_batch(self) -> None:
        by_name = {f"txn-{t.txn_id}": t for t in self._pending}
        names = set(by_name)
        self._pending = [by_name[n] for n in names]  # sanitize: ok(deliberate injected bug for validator tests)
        original(self)

    Sequencer._cut_batch = buggy_cut_batch
    try:
        yield
    finally:
        Sequencer._cut_batch = original


def run_digest(
    spec: ExperimentSpec, *, record: bool = False, label: str = "run"
) -> RunDigest:
    """Run the spec in-process with event-stream digests attached.

    The run is forced serial (digests live in this process) and
    trace-free (a tracer changes nothing observable, but the point of a
    digest run is the minimal configuration).  Returns one
    :class:`KernelDigest` per kernel the run created, in creation order,
    beside the digest of what the run returned.
    """
    clean = spec.with_overrides(jobs=None, keep_cluster=False, trace=None)
    with _maybe_inject():
        with capture_digests(record=record) as digests:
            results = run_experiment(clean)
    return RunDigest(
        label=label,
        result=payload_digest(canonical_payload(results)),
        kernels=[
            KernelDigest(
                events=d.count,
                hexdigest=d.hexdigest(),
                lines=list(d.lines) if record else None,
            )
            for d in digests
        ],
    )


def run_digest_subprocess(
    spec: ExperimentSpec,
    *,
    hashseed: int,
    record: bool = False,
    label: str | None = None,
) -> RunDigest:
    """Run the spec in a child interpreter under a fixed ``PYTHONHASHSEED``.

    The child re-imports everything from scratch, so its hash salt —
    and nothing else — differs from the parent.  Digest equality across
    this boundary is what rules out hash-order dependence.
    """
    label = label or f"hashseed-{hashseed}"
    request = {
        "spec": spec_payload(spec),
        "record": record,
        "label": label,
    }
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sanitize", "replay-child"],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"replay child (PYTHONHASHSEED={hashseed}) failed:\n"
            f"{proc.stderr.strip() or proc.stdout.strip()}"
        )
    return RunDigest.from_json(json.loads(proc.stdout))


def replay_child_main(stdin_text: str) -> str:
    """The ``replay-child`` subcommand body: JSON request → JSON digest."""
    request = json.loads(stdin_text)
    spec = spec_from_payload(request["spec"])
    result = run_digest(
        spec, record=request.get("record", False),
        label=request.get("label", "child"),
    )
    return json.dumps(result.to_json())


# ----------------------------------------------------------------------
# Divergence localization
# ----------------------------------------------------------------------


@dataclass(slots=True)
class DivergenceReport:
    """Where two event streams first disagree, with trace context."""

    label_a: str
    label_b: str
    kernel_index: int
    event_index: int
    time_us: float
    line_a: str
    line_b: str
    before: list[str] = field(default_factory=list)
    trace_context: list[dict] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"first divergent event: kernel {self.kernel_index}, "
            f"event {self.event_index}, t={self.time_us:.1f}us",
            f"  {self.label_a}: {self.line_a}",
            f"  {self.label_b}: {self.line_b}",
        ]
        if self.before:
            lines.append("  shared prefix tail:")
            lines.extend(f"    {line}" for line in self.before)
        if self.trace_context:
            lines.append("  trace span context:")
            for event in self.trace_context:
                lines.append(
                    f"    [{event['cat']}] {event['name']} "
                    f"t={event['ts']:.1f}us node={event['node']} "
                    f"{event['args']}"
                )
        return "\n".join(lines)


def first_divergence(
    a: RunDigest, b: RunDigest
) -> tuple[int, int, str, str] | None:
    """(kernel_index, event_index, line_a, line_b) of the first mismatch.

    Requires both runs recorded.  A missing event (one stream shorter)
    reports the sentinel ``<stream ended>`` on the short side.
    """
    for k, (ka, kb) in enumerate(zip(a.kernels, b.kernels)):
        if ka.hexdigest == kb.hexdigest:
            continue
        lines_a = ka.lines or []
        lines_b = kb.lines or []
        for i in range(max(len(lines_a), len(lines_b))):
            line_a = lines_a[i] if i < len(lines_a) else "<stream ended>"
            line_b = lines_b[i] if i < len(lines_b) else "<stream ended>"
            if line_a != line_b:
                return k, i, line_a, line_b
    if len(a.kernels) != len(b.kernels):
        k = min(len(a.kernels), len(b.kernels))
        return k, 0, (
            "<stream ended>" if k >= len(a.kernels) else "<kernel exists>"
        ), (
            "<stream ended>" if k >= len(b.kernels) else "<kernel exists>"
        )
    return None


def _event_time_us(lines: Sequence[str], index: int) -> float:
    """Simulated time of the event at ``index`` (nearest kernel tap)."""
    for i in range(min(index, len(lines) - 1), -1, -1):
        line = lines[i]
        if line.startswith("k|"):
            try:
                return float(line.split("|", 2)[1])
            except ValueError:  # pragma: no cover - malformed line
                return 0.0
    return 0.0


def _trace_context(spec: ExperimentSpec, t_us: float) -> list[dict]:
    """Span context around ``t_us`` from a traced re-run of the spec."""
    from repro.obs.tracer import Tracer

    tracer = Tracer(purpose="divergence-context")
    traced = spec.with_overrides(
        jobs=None, keep_cluster=False, trace=tracer
    )
    with _maybe_inject():
        run_experiment(traced)
    nearby = [
        e for e in tracer.events
        if abs(e["ts"] - t_us) <= _CONTEXT_WINDOW_US
    ]
    nearby.sort(key=lambda e: (abs(e["ts"] - t_us), e["seq"]))
    picked = nearby[:_CONTEXT_EVENTS]
    picked.sort(key=lambda e: e["seq"])
    return picked


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ReplayReport:
    """Outcome of one dual replay."""

    ok: bool
    digests: dict[str, str]
    events: dict[str, int]
    results: dict[str, str]
    divergence: DivergenceReport | None = None
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        status = "DETERMINISTIC" if self.ok else "DIVERGENT"
        lines = [f"dual replay: {status}"]
        for label, digest in self.digests.items():
            lines.append(
                f"  {label:<12} {digest}  ({self.events[label]} events)"
                f"  result {self.results[label]}"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        return "\n".join(lines)


def dual_replay(
    spec: ExperimentSpec,
    *,
    hashseeds: Sequence[int] = (1, 2),
    localize: bool = True,
) -> ReplayReport:
    """Run the full three-leg determinism check on one spec.

    Returns a :class:`ReplayReport`; ``report.ok`` means every leg —
    two in-process runs plus one subprocess run per perturbed
    ``PYTHONHASHSEED`` — produced the identical event-stream digest and
    the identical result digest.  On mismatch (and ``localize=True``) the diverging pair is re-run with
    per-event recording and the report carries the first divergent
    event, the shared prefix tail, and :mod:`repro.obs` span context
    around the divergence time.
    """
    runs: list[RunDigest] = [
        run_digest(spec, label="run-a"),
        run_digest(spec, label="run-b"),
    ]
    for seed in hashseeds:
        runs.append(run_digest_subprocess(spec, hashseed=seed))

    reference = runs[0]
    divergent = next(
        (
            r for r in runs[1:]
            if (r.combined, r.result) != (reference.combined, reference.result)
        ),
        None,
    )
    report = ReplayReport(
        ok=divergent is None,
        digests={r.label: r.combined for r in runs},
        events={r.label: r.events for r in runs},
        results={r.label: r.result for r in runs},
    )
    if divergent is None or not localize:
        return report
    if divergent.combined == reference.combined:
        report.notes.append(
            f"{divergent.label} scheduled the identical event stream but "
            "returned a different result payload: look at how metrics "
            "and extras are computed, not at event order"
        )
        return report

    recorded_a = run_digest(spec, record=True, label=reference.label)
    if divergent.label.startswith("hashseed-"):
        seed = int(divergent.label.split("-", 1)[1])
        recorded_b = run_digest_subprocess(
            spec, hashseed=seed, record=True, label=divergent.label
        )
    else:
        recorded_b = run_digest(spec, record=True, label=divergent.label)

    located = first_divergence(recorded_a, recorded_b)
    if located is None:
        report.notes.append(
            "divergence did not reproduce under recording (suspect "
            "leaked global state rather than hash order); digests above "
            "are from the original runs"
        )
        return report

    kernel_index, event_index, line_a, line_b = located
    lines_a = recorded_a.kernels[kernel_index].lines or []
    time_us = _event_time_us(lines_a, event_index)
    report.divergence = DivergenceReport(
        label_a=recorded_a.label,
        label_b=recorded_b.label,
        kernel_index=kernel_index,
        event_index=event_index,
        time_us=time_us,
        line_a=line_a,
        line_b=line_b,
        before=lines_a[max(0, event_index - 5):event_index],
        trace_context=_trace_context(spec, time_us),
    )
    return report
