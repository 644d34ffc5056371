"""Online serving: a wall-clock front door over the deterministic engine.

The simulation stack executes totally ordered batches under a simulated
clock; this package puts a real-time serving surface on top without
giving up replayability:

* :class:`~repro.serve.core.ServeCore` — the synchronous heart: each
  *tick* journals the arrivals, submits them, and advances the
  simulated clock exactly one sequencer epoch
  (:meth:`~repro.engine.cluster.Cluster.advance_epoch`), so simulated
  time is slaved to the arrival stream, never to the wall clock.
* :mod:`~repro.serve.journal` — the append-only arrival journal
  (JSON lines).  The journal *is* the deterministic history: replaying
  it through :func:`~repro.serve.replayer.verify_journal` reproduces
  the original run's state fingerprint and event digest byte for byte.
* :class:`~repro.serve.admission.AdmissionController` — load shedding
  and backpressure ahead of the journal: shed requests never enter the
  deterministic history.
* :class:`~repro.serve.driver.ServeDriver` and
  :class:`~repro.serve.frontend.Frontend` — the asyncio wall-clock
  loop and JSON-lines TCP front end.
* ``python -m repro.serve loadgen`` — the wall-clock load generator
  (sustained txn/s, p50/p95/p99), with flash-crowd and elastic
  add/remove-node scenario knobs; ``python -m repro.serve replay``
  verifies a journal against its recorded footer.

See DESIGN.md §17 for the architecture and the journal format.  The
package re-exports the four names ``perfbench/`` imports from it, all
of them serving modules; everything else is imported from the module
that defines it.
"""

from repro.serve.core import ServeConfig, ServeCore
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal

__all__ = ["JournalWriter", "ServeConfig", "ServeCore", "verify_journal"]
