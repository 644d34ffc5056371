"""The JSON-lines front end over real sockets, and its reply batching.

Every test runs the full stack — ``ServeCore`` with a journal, the
driver's tick loop, the TCP server — on an ephemeral port, and ends by
stopping the driver, which drains and seals the journal.
"""

import asyncio
import json

from repro.serve.core import ServeConfig, ServeCore
from repro.serve.driver import ServeDriver
from repro.serve.frontend import Frontend
from repro.serve.journal import JournalWriter
from repro.serve.replayer import verify_journal

CONFIG = ServeConfig(num_keys=2_000)


def line(tag, **body) -> bytes:
    return (json.dumps({"tag": tag, **body}) + "\n").encode()


def read_request(tag: int) -> bytes:
    return line(tag, reads=[(tag * 37) % CONFIG.num_keys])


async def serving(path, client):
    """Run ``client(host, port)`` against a live stack; seal the journal."""
    driver = ServeDriver(ServeCore(CONFIG, journal=JournalWriter(path)))
    frontend = Frontend(driver)
    host, port = await frontend.start()
    running = asyncio.ensure_future(driver.run())
    try:
        return await asyncio.wait_for(client(host, port), timeout=30.0)
    finally:
        driver.stop()
        await asyncio.wait_for(running, timeout=30.0)
        await frontend.stop()


async def read_replies(reader, count: int) -> list[dict]:
    return [json.loads(await reader.readline()) for _ in range(count)]


class TestProtocol:
    def test_pipelined_requests_each_answered_once(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")

        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(read_request(tag) for tag in range(500)))
            replies = await read_replies(reader, 500)
            writer.close()
            return replies

        replies = asyncio.run(serving(path, client))
        assert sorted(r["tag"] for r in replies) == list(range(500))
        assert {r["status"] for r in replies} == {"committed"}
        assert verify_journal(path).ok

    def test_malformed_lines_get_errors_and_the_connection_survives(
        self, tmp_path
    ):
        path = str(tmp_path / "serve.jsonl")

        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"this is not json\n"
                b"[1, 2]\n"
                + line(7)  # decodes, but asks for nothing
                + line("bad-type", reads=5)
                + read_request(8)
            )
            replies = await read_replies(reader, 5)
            writer.close()
            return replies

        replies = asyncio.run(serving(path, client))
        errors = [r for r in replies if r["status"] == "error"]
        assert len(errors) == 4
        # The tag comes back whenever the line decoded to an object
        # carrying one, so a pipelining client can correlate the error.
        assert sorted(str(r.get("tag")) for r in errors) == [
            "7", "None", "None", "bad-type",
        ]
        assert {"tag": 8, "status": "committed"} in replies
        assert verify_journal(path).ok

    def test_disconnect_with_requests_in_flight(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")

        async def client(host, port):
            _, rude = await asyncio.open_connection(host, port)
            rude.write(b"".join(read_request(tag) for tag in range(200)))
            await rude.drain()
            rude.transport.abort()  # reset, replies undeliverable
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(read_request(1_000))
            reply = await read_replies(reader, 1)
            writer.close()
            return reply

        reply = asyncio.run(serving(path, client))
        assert reply == [{"tag": 1_000, "status": "committed"}]
        assert verify_journal(path).ok


class _CountingWriter:
    """Stands in for the StreamWriter: notes the tick of every write."""

    def __init__(self, core: ServeCore) -> None:
        self.core = core
        self.write_ticks: list[int] = []
        self.data = b""

    def write(self, data: bytes) -> None:
        self.write_ticks.append(self.core.ticks)
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestReplyBatching:
    def test_one_write_per_connection_per_tick(self):
        total = 300

        async def scenario():
            core = ServeCore(CONFIG)
            driver = ServeDriver(core)
            frontend = Frontend(driver)
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"".join(read_request(tag) for tag in range(total))
            )
            reader.feed_eof()
            writer = _CountingWriter(core)
            running = asyncio.ensure_future(driver.run())
            await asyncio.wait_for(
                frontend._handle(reader, writer), timeout=30.0
            )
            driver.stop()
            await asyncio.wait_for(running, timeout=30.0)
            return writer

        writer = asyncio.run(scenario())
        replies = [json.loads(raw) for raw in writer.data.splitlines()]
        assert sorted(r["tag"] for r in replies) == list(range(total))
        # Replies settle inside ticks and are written when the tick
        # yields: never two writes under one tick count, and far fewer
        # writes than replies.
        ticks = writer.write_ticks
        assert len(ticks) == len(set(ticks))
        assert len(ticks) <= 3
