"""The wall-clock serving loop: asyncio pacing over a sync ServeCore.

The driver owns the only place wall time enters the system — *when* to
run the next tick.  Everything a tick contains (admitted arrivals,
resize events) is journaled by the core before execution, so wall
jitter can stretch or compress the real-time spacing of ticks without
ever changing the deterministic history.

Pacing rule: ``tick_interval_s`` is the arrival *batching window*, not a
latency floor.  Arrivals are admitted only by ticks that start on the
epoch grid, so the router sees a whole window per batch; but once a
batch is sequenced nothing waits for the wall clock — while the cluster
has work in flight the driver runs arrival-free completion ticks back
to back, yielding to the event loop once after every tick so sockets are
read and replies flushed in between.

Requests arrive via :meth:`ServeDriver.submit` with a ``reply``
callback, called exactly once from inside the tick that settles the
request: ``"shed"`` at admission, ``"committed"`` or ``"aborted"`` at
commit.  Admission runs at tick time in arrival order, ahead of the
journal.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping

from repro.engine.executor import TxnRuntime
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.core import ServeCore, ServeReport

__all__ = ["SERVE_ADMISSION", "ServeDriver"]

#: The front door's admission limits (:mod:`repro.serve.admission`).
SERVE_ADMISSION = AdmissionConfig(max_per_tick=2_000, max_inflight=8_000)


class ServeDriver:
    """Paces ServeCore ticks against the wall clock."""

    def __init__(
        self,
        core: ServeCore,
        admission: AdmissionController | None = None,
        tick_interval_s: float | None = None,
    ) -> None:
        self.core = core
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(SERVE_ADMISSION)
        )
        self.tick_interval_s = (
            tick_interval_s
            if tick_interval_s is not None
            else core.config.epoch_us / 1e6
        )
        self._arrivals: list[tuple[Mapping, Callable[[str], None]]] = []
        self._resizes: list[tuple[str, int]] = []
        self._stopping = False
        #: set by the grid timer or by :meth:`stop` to end an idle sleep.
        self._wakeup = asyncio.Event()

    # ------------------------------------------------------------------
    # Client-facing API (event-loop thread)
    # ------------------------------------------------------------------

    def submit(
        self, request: Mapping, reply: Callable[[str], None]
    ) -> None:
        """Queue one arrival; ``reply(status)`` fires when it settles."""
        self._arrivals.append((request, reply))

    def schedule_resize(self, kind: str, node: int) -> None:
        """Queue an elastic event for the next tick (journaled with it)."""
        self._resizes.append((kind, node))

    def overloaded(self) -> bool:
        """Backpressure signal for the front end."""
        return self.admission.overloaded(self.core.cluster)

    def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    @staticmethod
    def _commit_callback(reply: Callable[[str], None]):
        def on_commit(runtime: TxnRuntime) -> None:
            reply("aborted" if runtime.will_abort else "committed")

        return on_commit

    def _tick_once(self) -> None:
        admission = self.admission
        cluster = self.core.cluster
        admission.begin_tick()
        arrivals, self._arrivals = self._arrivals, []
        resizes, self._resizes = self._resizes, []
        requests: list[Mapping] = []
        callbacks = []
        for request, reply in arrivals:
            if admission.admit(cluster):
                requests.append(request)
                callbacks.append(self._commit_callback(reply))
            else:
                reply("shed")
        self.core.tick(requests, resizes=resizes, callbacks=callbacks)

    async def run(self) -> ServeReport:
        """Tick until :meth:`stop`, then drain and seal the journal."""
        loop = asyncio.get_running_loop()
        interval = self.tick_interval_s
        core = self.core
        next_at = loop.time() + interval
        while not self._stopping:
            now = loop.time()
            if now >= next_at:
                # On the grid: admit the window's arrivals.  Grid points
                # missed while a tick ran long are skipped, not replayed.
                next_at += interval * ((now - next_at) // interval + 1)
                self._tick_once()
            elif core.cluster.inflight > 0:
                # Between grid points with work in flight: a completion
                # tick.  Arrivals keep batching until the next grid point.
                core.tick(())
            else:
                timer = loop.call_at(next_at, self._wakeup.set)
                await self._wakeup.wait()
                timer.cancel()
                self._wakeup.clear()
                continue
            # Yield after every tick, or a busy driver starves the
            # sockets and the next grid tick sheds at max_per_tick.
            await asyncio.sleep(0)
        # Final tick flushes arrivals queued after the last grid tick;
        # finish() drains in-flight work and settles every request.
        if self._arrivals or self._resizes:
            self._tick_once()
        return core.finish()
