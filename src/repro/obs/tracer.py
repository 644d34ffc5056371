"""Structured tracing on the simulated clock.

A :class:`Tracer` records *typed events* — spans with start/duration and
instants — stamped with simulated microseconds, while the engine runs.
Because the simulator is deterministic and the tracer draws no
randomness, consumes no simulated time, and never touches the kernel's
scheduling state, **a traced run is behaviourally identical to an
untraced run** and two traced runs of the same (preset, seed) produce
byte-identical output.

Zero cost when disabled
-----------------------
There is no global tracer and no ambient "is tracing on" flag consulted
on hot paths.  Components hold a ``tracer`` reference that is ``None``
by default, and every instrumentation site is guarded::

    tracer = self.tracer
    if tracer is not None:
        tracer.commit(txn_id, node, aborted, stages)

so a disabled tracer costs one local load and an identity check.  Every
perfbench ``sim_tenant_*`` run has the tracer off, so that cost is
inside its measured txn/s.

Output formats
--------------
* :meth:`write_jsonl` — one event per line, keys sorted: the
  deterministic archival format the determinism tests byte-compare and
  the :mod:`repro.obs.analyze` readers consume.
* :meth:`write_chrome_trace` — Chrome ``trace_event`` JSON loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Nodes
  appear as processes; per-transaction spans get their own tracks.

Event taxonomy (the ``cat`` field)
----------------------------------
``seq``    sequencer epochs: ``batch_cut``, ``batch_delivered``
``route``  scheduler: ``route_batch`` spans, per-txn ``txn`` metadata
``lock``   ``lock_wait`` spans with blocker seqs (wait-chain evidence)
``exec``   executor stages: ``serve``, ``execute``, ``commit``/``abort``
``net``    ``remote_read``, ``writeback_*``, ``eviction_*`` transfers
``fusion`` per-batch fusion-table counter samples
``load``   per-batch per-node queue-depth counter samples
``mig``    migration controller phases (``chunk_submit``/``chunk_commit``)
``fault``  fault-injector window transitions
``forecast`` forecast-error samples, fallback engage/recover transitions
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, TextIO

from repro.obs import hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Kernel

#: pid used in Chrome exports for cluster-scoped events (sequencer,
#: scheduler, lock manager); real nodes are ``pid = node_id + 1``.
CLUSTER_PID = 0

#: Stable category list (documentation + analyzers' filters).
CATEGORIES = (
    "seq", "route", "lock", "exec", "net", "fusion", "load", "mig", "fault",
    "forecast",
)


def _jsonable(value: Any) -> Any:
    """Coerce event args to deterministic JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class Tracer:
    """Collects typed simulated-time events for one cluster run."""

    __slots__ = ("events", "meta", "_kernel", "_seq", "__weakref__")

    def __init__(self, **meta: Any) -> None:
        #: free-form run metadata (preset, seed, strategy); serialized in
        #: the header line.  Must itself be deterministic — no wall
        #: clocks — or byte-identity across runs is lost.
        self.meta: dict[str, Any] = dict(meta)
        self.events: list[dict] = []
        self._kernel: "Kernel | None" = None
        self._seq = 0
        hooks.register(self)

    # -- clock ------------------------------------------------------------

    def bind(self, kernel: "Kernel") -> None:
        """Attach the simulated clock (done by ``Cluster.__init__``)."""
        self._kernel = kernel

    def now(self) -> float:
        """Current simulated time, or 0.0 before binding."""
        kernel = self._kernel
        return kernel.timestamp() if kernel is not None else 0.0

    # -- core emitters ----------------------------------------------------

    def instant(
        self, cat: str, name: str, node: int = -1, **args: Any
    ) -> None:
        """A point event at the current simulated time."""
        self._emit("i", cat, name, self.now(), 0.0, node, args)

    def span(
        self,
        cat: str,
        name: str,
        start_us: float,
        node: int = -1,
        **args: Any,
    ) -> None:
        """A complete span from ``start_us`` to the current time."""
        now = self.now()
        self._emit("X", cat, name, start_us, max(0.0, now - start_us), node, args)

    def counter(self, cat: str, name: str, node: int = -1, **values: Any) -> None:
        """A sampled counter set (renders as a track in Perfetto)."""
        self._emit("C", cat, name, self.now(), 0.0, node, values)

    def _emit(
        self,
        ph: str,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        node: int,
        args: dict,
    ) -> None:
        self._seq += 1
        self.events.append({
            "seq": self._seq,
            "ph": ph,
            "cat": cat,
            "name": name,
            "ts": ts,
            "dur": dur,
            "node": node,
            "args": _jsonable(args),
        })

    def __len__(self) -> int:
        return len(self.events)

    # -- typed events: sequencer ------------------------------------------

    def batch_cut(self, epoch: int, txns: int, backlog: int) -> None:
        self.instant("seq", "batch_cut", epoch=epoch, txns=txns,
                     backlog=backlog)

    def batch_delivered(self, epoch: int, txns: int) -> None:
        self.instant("seq", "batch_delivered", epoch=epoch, txns=txns)

    # -- typed events: scheduler / routing --------------------------------

    def route_batch(
        self, epoch: int, txns: int, start_us: float, cost_us: float
    ) -> None:
        self._emit("X", "route", "route_batch", start_us, cost_us, -1,
                   {"epoch": epoch, "txns": txns})

    def txn_dispatched(
        self,
        seq: int,
        txn_id: int,
        kind: str,
        coordinator: int,
        masters: tuple,
        size: int,
    ) -> None:
        """seq → txn metadata; joins lock events to transactions."""
        self.instant("route", "txn", txn_seq=seq, txn=txn_id, kind=kind,
                     coordinator=coordinator, masters=list(masters),
                     size=size)

    # -- typed events: locking --------------------------------------------

    def lock_wait(
        self,
        key: Any,
        seq: int,
        mode: str,
        blockers: list[int],
        holders_total: int,
        start_us: float,
    ) -> None:
        """A lock wait that just ended (span from enqueue to grant).

        ``blockers`` carries the seqs this request was directly behind at
        enqueue time (granted holders plus the waiter immediately ahead),
        capped by the lock manager; ``holders_total`` is the uncapped
        holder count, so wide shared coalitions are still visible.
        """
        self.span("lock", "lock_wait", start_us, key=repr(key), txn_seq=seq,
                  mode=mode, blockers=blockers, holders=holders_total)

    # -- typed events: executor -------------------------------------------

    def serve(
        self, txn_id: int, node: int, start_us: float, keys: int
    ) -> None:
        self.span("exec", "serve", start_us, node=node, txn=txn_id,
                  keys=keys)

    def execute(
        self,
        txn_id: int,
        node: int,
        start_us: float,
        logic_cpu_us: float,
        apply_cpu_us: float,
        incoming: int,
    ) -> None:
        self.span("exec", "execute", start_us, node=node, txn=txn_id,
                  logic_cpu_us=logic_cpu_us, apply_cpu_us=apply_cpu_us,
                  incoming=incoming)

    def commit(
        self,
        txn_id: int,
        node: int,
        aborted: bool,
        stages: dict[str, float] | None = None,
    ) -> None:
        name = "abort" if aborted else "commit"
        if stages is None:
            self.instant("exec", name, node=node, txn=txn_id)
        else:
            self.instant("exec", name, node=node, txn=txn_id, **stages)

    # -- typed events: data movement --------------------------------------

    def remote_read(
        self, txn_id: int, src: int, dst: int, keys: int, payload: int
    ) -> None:
        self.instant("net", "remote_read", node=src, txn=txn_id, dst=dst,
                     keys=keys, bytes=payload)

    def data_move(
        self, name: str, txn_id: int, src: int, dst: int, records: int
    ) -> None:
        """writeback/eviction send+install events (``name`` says which)."""
        self.instant("net", name, node=src, txn=txn_id, dst=dst,
                     records=records)

    # -- typed events: fusion table / node load (per-batch samples) -------

    def fusion_sample(self, epoch: int, **stats: float) -> None:
        self.counter("fusion", "fusion_table", epoch=epoch, **stats)

    def node_load(self, epoch: int, node: int, **stats: float) -> None:
        self.counter("load", "node_load", node=node, epoch=epoch, **stats)

    # -- typed events: migration / faults ---------------------------------

    def migration(self, phase: str, **args: Any) -> None:
        self.instant("mig", phase, **args)

    def replication(self, phase: str, **args: Any) -> None:
        """Replica provision / install / invalidation lifecycle events."""
        self.instant("repl", phase, **args)

    def migration_session(
        self, session: int, state: str, start_us: float, **stats: Any
    ) -> None:
        """One whole migration session as a span (its own Perfetto track).

        Emitted on the session's terminal transition (DONE/CANCELLED),
        spanning from ``start()`` to the current simulated time, with the
        per-session counters attached as args.
        """
        self.span("mig", "migration_session", start_us, session=session,
                  state=state, **stats)

    def fault(self, state: str, event: Any) -> None:
        self.instant("fault", state, kind=type(event).__name__,
                     detail=repr(event))

    # -- typed events: forecasting ----------------------------------------

    def forecast_sample(self, epoch: int, **stats: float) -> None:
        """Per-epoch forecast-quality counter sample."""
        self.counter("forecast", "forecast_error", epoch=epoch, **stats)

    def forecast_transition(self, name: str, **args: Any) -> None:
        """Fallback engage/recover edge (``fallback_engaged`` etc.)."""
        self.instant("forecast", name, **args)

    def forecast_fallback(self, start_us: float, **args: Any) -> None:
        """One completed fallback episode as a span (engage → recover)."""
        self.span("forecast", "forecast_fallback", start_us, **args)

    # -- export -----------------------------------------------------------

    def jsonl_lines(self) -> Iterable[str]:
        """The deterministic line-per-event serialization.

        The first line is a header carrying the run metadata; every
        subsequent line is one event with sorted keys and compact
        separators, so identical runs serialize byte-identically.
        """
        yield json.dumps(
            {"format": "repro-trace", "version": 1, "meta": _jsonable(self.meta)},
            sort_keys=True, separators=(",", ":"),
        )
        for event in self.events:
            yield json.dumps(event, sort_keys=True, separators=(",", ":"))

    def write_jsonl(self, path_or_file: Any) -> None:
        """Write the JSONL trace to a path or open text file."""
        if hasattr(path_or_file, "write"):
            self._write_jsonl(path_or_file)
        else:
            with open(path_or_file, "w") as fh:
                self._write_jsonl(fh)

    def _write_jsonl(self, fh: TextIO) -> None:
        for line in self.jsonl_lines():
            fh.write(line)
            fh.write("\n")

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document (Perfetto-loadable).

        Nodes map to processes (``pid = node + 1``; cluster-level events
        live in pid 0).  Transaction-scoped exec spans get one track per
        transaction; other events share a per-category track.
        """
        trace_events: list[dict] = []
        pids: set[int] = set()
        for event in self.events:
            node = event["node"]
            pid = CLUSTER_PID if node < 0 else node + 1
            pids.add(pid)
            args = event["args"]
            if event["cat"] in ("exec", "lock"):
                tid = args.get("txn", args.get("txn_seq", 0))
            else:
                tid = CATEGORIES.index(event["cat"]) + 1
            out = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "ts": event["ts"],
                "pid": pid,
                "tid": tid,
                "args": args,
            }
            if event["ph"] == "X":
                out["dur"] = event["dur"]
            if event["ph"] == "C":
                # Counter args must be numeric-only for the track render.
                out["args"] = {
                    k: v for k, v in args.items()
                    if isinstance(v, (int, float))
                }
            trace_events.append(out)
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "cluster" if pid == CLUSTER_PID
                    else f"node {pid - 1}"
                },
            }
            for pid in sorted(pids)
        ]
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
            "otherData": _jsonable(self.meta),
        }

    def write_chrome_trace(self, path_or_file: Any) -> None:
        """Write the Chrome ``trace_event`` JSON to a path or file."""
        doc = self.to_chrome_trace()
        if hasattr(path_or_file, "write"):
            json.dump(doc, path_or_file, sort_keys=True)
        else:
            with open(path_or_file, "w") as fh:
                json.dump(doc, fh, sort_keys=True)


def read_jsonl(path: Any) -> tuple[dict, list[dict]]:
    """Load a JSONL trace: returns (meta, events)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "repro-trace":
            raise ValueError(f"{path}: not a repro trace file")
        events = [json.loads(line) for line in fh if line.strip()]
    return header.get("meta", {}), events
