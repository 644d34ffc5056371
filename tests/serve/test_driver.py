"""ServeDriver pacing: the batching window, completion ticks, shutdown.

The driver is the only wall-clock component, so these tests run it on a
real event loop with real (short) intervals.  What must hold whatever
the host's speed: arrivals are admitted only on the epoch grid, work in
flight never waits for the grid, every tick is journaled contiguously,
and every submitted request is answered exactly once — also across
``stop()``.
"""

import asyncio
from dataclasses import replace

from repro.serve.admission import AdmissionController
from repro.serve.core import ServeConfig, ServeCore
from repro.serve.driver import SERVE_ADMISSION, ServeDriver
from repro.serve.journal import JournalWriter, read_journal
from repro.serve.replayer import verify_journal

CONFIG = ServeConfig(num_keys=2_000)


def request(i: int) -> dict:
    key = (i * 37) % CONFIG.num_keys
    if i % 5 == 0:
        return {"reads": [key], "writes": [key]}
    return {"reads": sorted({key, (key + 13) % CONFIG.num_keys})}


async def until(condition) -> None:
    while not condition():
        await asyncio.sleep(0)


class TestPacing:
    def test_lone_request_does_not_wait_a_second_interval(self):
        # The request is cut by the grid tick and executed by the tick
        # after it.  A driver that sleeps to the grid with work in
        # flight answers after two intervals (>= 0.4 s); a completion
        # tick answers right after the first.
        async def scenario():
            loop = asyncio.get_running_loop()
            driver = ServeDriver(ServeCore(CONFIG), tick_interval_s=0.2)
            running = asyncio.ensure_future(driver.run())
            await asyncio.sleep(0.01)
            done = loop.create_future()
            started = loop.time()
            driver.submit(request(1), done.set_result)
            status = await asyncio.wait_for(done, timeout=5.0)
            elapsed = loop.time() - started
            driver.stop()
            await asyncio.wait_for(running, timeout=5.0)
            return status, elapsed

        status, elapsed = asyncio.run(scenario())
        assert status == "committed"
        assert elapsed < 0.3

    def test_completion_ticks_admit_no_arrivals(self, tmp_path):
        # B arrives between A's grid tick and A's completion tick.  The
        # completion tick must leave it queued: the window, not the
        # engine's progress, decides what a batch contains.
        path = str(tmp_path / "serve.jsonl")

        async def scenario():
            core = ServeCore(CONFIG, journal=JournalWriter(path))
            driver = ServeDriver(core, tick_interval_s=0.05)
            running = asyncio.ensure_future(driver.run())
            replies = []
            driver.submit(request(1), replies.append)
            await until(lambda: core.ticks >= 1)
            driver.submit(request(2), replies.append)
            await until(lambda: len(replies) == 2)
            driver.stop()
            await asyncio.wait_for(running, timeout=5.0)
            return replies

        assert asyncio.run(scenario()) == ["committed", "committed"]
        ticks = read_journal(path).ticks
        assert ticks[0].requests == (request(1),)
        assert ticks[1].requests == ()
        bearing = [t.tick for t in ticks if t.requests]
        assert len(bearing) == 2 and bearing[1] >= 2


class TestBacklog:
    def test_burst_is_answered_without_shedding(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        total = 5_000

        async def scenario():
            # One window admits the whole burst; the sequencer cuts it
            # into max_batch_size epochs that completion ticks drain.
            core = ServeCore(CONFIG, journal=JournalWriter(path))
            admission = AdmissionController(
                replace(SERVE_ADMISSION, max_per_tick=total)
            )
            driver = ServeDriver(core, admission)
            running = asyncio.ensure_future(driver.run())
            replies = []
            for i in range(total):
                driver.submit(request(i), replies.append)
            await asyncio.wait_for(
                until(lambda: len(replies) == total), timeout=60.0
            )
            driver.stop()
            report = await asyncio.wait_for(running, timeout=30.0)
            return driver, report, replies

        driver, report, replies = asyncio.run(scenario())
        assert replies == ["committed"] * total
        assert driver.admission.shed == 0
        assert report.accepted == report.commits == total
        journal = read_journal(path)
        assert [t.tick for t in journal.ticks] == list(range(report.ticks))
        assert journal.footer is not None
        assert verify_journal(path).ok

    def test_stop_during_backlog_answers_every_request(self):
        async def scenario():
            core = ServeCore(CONFIG)
            driver = ServeDriver(core)
            running = asyncio.ensure_future(driver.run())
            replies = []
            for i in range(300):
                driver.submit(request(i), replies.append)
            await until(lambda: core.ticks >= 1)
            # 300 in flight, 300 more not yet admitted: stop right now.
            for i in range(300, 600):
                driver.submit(request(i), replies.append)
            driver.stop()
            report = await asyncio.wait_for(running, timeout=30.0)
            return report, replies

        report, replies = asyncio.run(scenario())
        assert len(replies) == 600
        assert set(replies) <= {"committed", "aborted", "shed"}
        assert replies.count("committed") == report.commits == 600
