"""The serving core: arrival ticks slaved to sequencer epochs.

``ServeCore`` is deliberately synchronous and wall-clock free.  The
asyncio driver (and the tests, and the replayer) all drive the same
entry point::

    core = ServeCore(ServeConfig(...), journal=JournalWriter(path))
    core.tick([{"reads": [1, 2]}, {"reads": [3], "writes": [3]}])
    ...
    report = core.finish()

Each :meth:`ServeCore.tick` call:

1. applies any elastic resize events (journaled alongside arrivals,
   because topology changes are part of the deterministic history);
2. appends the tick record to the journal *before* submitting anything
   (journal-the-arrivals: the write-ahead rule that makes replay
   byte-identical even if the process dies mid-tick);
3. mints transaction ids in arrival order and submits to the real
   sequencer;
4. advances the simulated clock exactly one sequencer epoch
   (:meth:`repro.engine.cluster.Cluster.advance_epoch`).

Simulated time is therefore a pure function of the tick count and the
journaled arrival stream — wall-clock jitter in the driver changes
*when* a tick happens, never what it contains or what the engine sees.
The event digest (PR 4 taps) is captured from construction on, so the
footer pins both the final state fingerprint and the full scheduling
history.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.bench.specs import make_strategy
from repro.common.config import ClusterConfig, EngineConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Transaction
from repro.engine.cluster import Cluster
from repro.engine.elastic import ElasticDirector
from repro.engine.executor import TxnRuntime
from repro.sanitize.digest import capture_digests
from repro.storage.partitioning import make_uniform_ranges

if TYPE_CHECKING:  # pragma: no cover - journal.py imports this module
    from repro.serve.journal import JournalWriter

__all__ = ["SERVE_ENGINE", "ServeConfig", "ServeCore", "ServeReport"]

#: The serving cluster's engine; :class:`ServeCore` substitutes the
#: config's ``epoch_us``, because one tick is one sequencer epoch.
SERVE_ENGINE = EngineConfig(
    workers_per_node=2,
    migration_chunk_records=500,
    migration_chunk_gap_us=2_000.0,
)


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Everything needed to rebuild a serving cluster bit-identically.

    Serialized into the journal header; :meth:`from_json` must
    round-trip it exactly, because replay reconstructs the cluster from
    the journal alone.
    """

    num_keys: int = 10_000
    num_nodes: int = 4
    #: nodes active at start (first ``initial_nodes`` of the physical
    #: set); data is partitioned over these, elastic events add the rest.
    initial_nodes: int | None = None
    strategy: str = "hermes"
    epoch_us: float = 5_000.0
    #: attach an event-stream digest to the kernel (needed for the
    #: byte-identical replay guarantee; costs one hash per event).
    digest: bool = True

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ConfigurationError("num_keys must be >= 1")
        if self.initial_nodes is not None and not (
            1 <= self.initial_nodes <= self.num_nodes
        ):
            raise ConfigurationError(
                "initial_nodes must be in [1, num_nodes]"
            )

    def active_count(self) -> int:
        return (
            self.initial_nodes
            if self.initial_nodes is not None
            else self.num_nodes
        )

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ServeConfig":
        """Rebuild the config :meth:`to_json` wrote.

        The key set must match exactly: a :class:`ConfigurationError`
        names every unknown and every missing key.
        """
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(data) - names), sorted(names - set(data))
        if unknown or missing:
            raise ConfigurationError(
                f"unknown config keys {unknown}, missing config keys {missing}"
            )
        return cls(**data)


@dataclass(slots=True)
class ServeReport:
    """Outcome of a finished (drained) serve run."""

    ticks: int
    accepted: int
    commits: int
    duration_us: float
    fingerprint: int
    digest: str | None
    extras: dict = field(default_factory=dict)


class ServeCore:
    """Synchronous serving engine: one tick = one sequencer epoch."""

    def __init__(
        self,
        config: ServeConfig,
        journal: JournalWriter | None = None,
    ) -> None:
        self.config = config
        spec = make_strategy(config.strategy)
        active = config.active_count()
        capture = (
            capture_digests() if config.digest else nullcontext([])
        )
        with capture as digests:
            self.cluster = Cluster(
                ClusterConfig(
                    num_nodes=config.num_nodes,
                    engine=replace(SERVE_ENGINE, epoch_us=config.epoch_us),
                ),
                spec.make_router(),
                make_uniform_ranges(config.num_keys, active),
                overlay=spec.build_overlay(),
                active_nodes=range(active),
            )
        self.digest = digests[0] if digests else None
        self.cluster.load_data(range(config.num_keys))
        self.attached = (
            spec.attach(self.cluster) if spec.attach is not None else None
        )
        self.elastic = ElasticDirector(self.cluster, config.num_keys)
        self.journal = journal
        if journal is not None:
            journal.header(config.to_json())
        self.ticks = 0
        self.accepted = 0
        self._finished = False

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _make_txn(self, request: Mapping) -> Transaction:
        reads = request.get("reads", ())
        writes = request.get("writes", ())
        txn_id = self.cluster.next_txn_id()
        now = self.cluster.kernel.now
        if writes:
            return Transaction.read_write(
                txn_id, reads, writes, arrival_time=now
            )
        if not reads:
            raise ConfigurationError("request with no reads or writes")
        return Transaction.read_only(txn_id, reads, arrival_time=now)

    def tick(
        self,
        requests: Sequence[Mapping],
        resizes: Iterable[tuple[str, int]] = (),
        callbacks: Sequence[Callable[[TxnRuntime], None] | None]
        | None = None,
    ) -> float:
        """Serve one tick; returns the new simulated time.

        ``requests`` are admitted arrival payloads (``{"reads": [...],
        "writes": [...]}``); ``resizes`` are elastic events applied
        before the arrivals; ``callbacks`` optionally pairs each request
        with a commit hook (the driver completes client futures there).
        Everything except ``callbacks`` lands in the journal.
        """
        if self._finished:
            raise ConfigurationError("serve core already finished")
        resizes = list(resizes)
        journal = self.journal
        if journal is not None:
            journal.tick(self.ticks, requests, resizes)
        for kind, node in resizes:
            self.elastic.apply(kind, node)
        cluster = self.cluster
        for index, request in enumerate(requests):
            on_commit = (
                callbacks[index] if callbacks is not None else None
            )
            cluster.submit(self._make_txn(request), on_commit=on_commit)
        self.accepted += len(requests)
        self.ticks += 1
        return cluster.advance_epoch()

    def drain(self, max_ticks: int = 10_000) -> int:
        """Run empty ticks until every submitted transaction finished.

        Drain ticks are *not* journaled: replay re-derives them by
        draining the same way, so a journal only records real arrivals.
        Returns the number of drain ticks consumed.
        """
        cluster = self.cluster
        used = 0
        while cluster.inflight > 0 and used < max_ticks:
            cluster.advance_epoch()
            used += 1
        if cluster.inflight > 0:
            raise ConfigurationError(
                f"serve drain did not quiesce in {max_ticks} epochs"
            )
        return used

    def finish(self) -> ServeReport:
        """Drain, seal the journal with the footer, and report.

        The drained cluster is closed (:meth:`Cluster.close`): it stays
        readable, and reference counting frees it with this core.
        """
        self.drain()
        self._finished = True
        cluster = self.cluster
        fingerprint = cluster.state_fingerprint()
        digest_hex = (
            self.digest.hexdigest() if self.digest is not None else None
        )
        report = ServeReport(
            ticks=self.ticks,
            accepted=self.accepted,
            commits=cluster.metrics.commits,
            duration_us=cluster.kernel.now,
            fingerprint=fingerprint,
            digest=digest_hex,
            extras={
                "epochs_delivered": cluster.metrics.batches,
                "resizes": self.elastic.resizes,
                "active_nodes": list(cluster.view.active_nodes),
            },
        )
        cluster.close()
        if self.journal is not None:
            self.journal.footer(
                ticks=self.ticks,
                accepted=self.accepted,
                commits=report.commits,
                fingerprint=fingerprint,
                digest=digest_hex,
            )
            self.journal.close()
        return report
