"""JSON-lines TCP front end for the serving driver.

Protocol: one JSON object per line in each direction.  Requests carry a
client-chosen ``tag`` plus ``reads`` / ``writes`` key lists::

    -> {"tag": 17, "reads": [4, 981], "writes": []}
    <- {"tag": 17, "status": "committed"}

Statuses: ``committed``, ``aborted``, ``shed`` (admission rejected it),
``error`` (malformed request; carries the ``tag`` whenever the line
decoded to an object that had one).  Responses may interleave across
tags — the server replies at commit time, not in request order.

Replies are settled synchronously inside a driver tick, so each
connection buffers them and writes the buffer once when the tick yields:
one ``write`` (one ``send``) per connection per tick, however many
transactions the tick committed.

Backpressure: while the admission controller reports overload, or the
client is not reading its replies, the connection handler stops reading
from the socket (TCP flow control does the rest) instead of buffering
unboundedly.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial

from repro.serve.driver import ServeDriver

__all__ = ["Frontend"]

_encode = json.JSONEncoder(sort_keys=True).encode


class _Connection:
    """One client's reply buffer, flushed once per driver tick."""

    __slots__ = ("writer", "out", "unanswered", "_call_soon")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        #: reply lines since the last flush; ``None`` once the client
        #: is gone and replies are dropped.
        self.out: list[str] | None = []
        self.unanswered = 0
        self._call_soon = asyncio.get_running_loop().call_soon

    def send(self, payload: dict) -> None:
        out = self.out
        if out is None:
            return
        if not out:
            # First reply since the last flush.  Ticks never await, so
            # this runs when the tick yields, with all its replies.
            self._call_soon(self.flush)
        out.append(_encode(payload) + "\n")

    def flush(self) -> None:
        if self.out:
            self.writer.write("".join(self.out).encode())
            self.out.clear()

    def reply(self, tag, status: str) -> None:
        """The driver's settle hook for one request."""
        self.send({"tag": tag, "status": status})
        self.unanswered -= 1


class Frontend:
    """asyncio TCP server feeding a :class:`ServeDriver`."""

    def __init__(
        self,
        driver: ServeDriver,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.driver = driver
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self.connections = 0
        self.requests = 0
        self.errors = 0

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.connections += 1
        conn = _Connection(writer)
        driver = self.driver
        try:
            while True:
                # Backpressure: overloaded engine, or a client that is
                # not reading its replies -> stop reading this socket.
                while driver.overloaded():
                    await asyncio.sleep(driver.tick_interval_s)
                await writer.drain()
                line = await reader.readline()
                if not line:
                    break
                self.requests += 1
                message = None
                try:
                    message = json.loads(line)
                    request = {
                        "reads": list(message.get("reads", ())),
                        "writes": list(message.get("writes", ())),
                    }
                    if not request["reads"] and not request["writes"]:
                        raise ValueError("empty request")
                except (ValueError, TypeError, AttributeError) as exc:
                    self.errors += 1
                    error = {"status": "error", "error": str(exc)}
                    if isinstance(message, dict) and "tag" in message:
                        error["tag"] = message["tag"]
                    conn.send(error)
                    continue
                conn.unanswered += 1
                driver.submit(
                    request, partial(conn.reply, message.get("tag"))
                )
            # Client finished sending: deliver what is still in flight.
            while conn.unanswered:
                await asyncio.sleep(driver.tick_interval_s)
            conn.flush()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            conn.out = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
