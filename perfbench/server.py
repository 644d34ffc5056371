"""The serving stack as the benchmark launches it, in its own process.

``ServeCore(ServeConfig())`` -> ``ServeDriver`` -> ``Frontend`` with the
journal and the event digest on: the shipped defaults.  Protocol with the
parent, all on stdout/stdin:

* once listening, prints ``{"port": N}``;
* serves until stdin reaches end-of-file;
* then drains, seals the journal and prints one JSON report line
  (``ServeReport`` fields, front-end and admission counters, the tick
  loop's wall and CPU time and this process's peak RSS).

With ``--trace`` the whole serving loop runs under ``cProfile`` and the
report carries the per-layer split from :mod:`layers`.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import sys
import time

import layers
from repro.bench.harness import peak_rss_mb
from repro.serve import JournalWriter, ServeConfig, ServeCore
from repro.serve.driver import ServeDriver
from repro.serve.frontend import Frontend


async def serve(journal_path: str) -> dict:
    config = ServeConfig()
    core = ServeCore(config, journal=JournalWriter(journal_path))
    driver = ServeDriver(core)
    frontend = Frontend(driver)
    _, port = await frontend.start()
    print(json.dumps({"port": port}), flush=True)
    started, cpu_started = time.perf_counter(), time.process_time()
    ticking = asyncio.ensure_future(driver.run())
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    driver.stop()
    report = await ticking
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    await frontend.stop()
    return {
        "ticks": report.ticks,
        "accepted": report.accepted,
        "commits": report.commits,
        "fingerprint": report.fingerprint,
        "digest": report.digest,
        "epoch_us": config.epoch_us,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "requests": frontend.requests,
        "errors": frontend.errors,
        "shed": driver.admission.shed,
        "memory_mb": core.cluster.store_usage()["store_memory_bytes"] / 1e6,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    profile = cProfile.Profile() if args.trace else None
    if profile is not None:
        profile.enable()
    report = asyncio.run(serve(args.journal))
    if profile is not None:
        profile.disable()
        report["profile"] = layers.split(profile)
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
