"""Split a ``cProfile`` run by layer: whose code was the time spent in?

A *layer* is one of this repository's modules (``sim.kernel``,
``engine.executor``, ``serve.frontend`` ...) or one slice of the Python
runtime the serving path leans on (``py.asyncio``, ``py.json``,
``py.socket``, ``py.hashlib``).  Every profiled function belongs to
exactly one layer, by the file that defines it, so the layers' self
times sum to the profiled total.  ``py.idle`` is the event loop waiting
for I/O: the share of a serving run in which the server had nothing to do.

*Boundaries* are the public calls between layers; for those the split
also keeps call counts and cumulative time.
"""

from __future__ import annotations

import cProfile
import pstats

__all__ = ["BOUNDARIES", "LAYERS", "split"]

#: Layers with a file (or package) of their own under ``src/repro``.
_REPO_LAYERS = (
    "sim.kernel", "sim.network", "sim.stats",
    "engine.sequencer", "engine.cluster", "engine.locks", "engine.executor",
    "engine.node", "engine.metrics",
    "core.prescient", "core.router", "core.fusion_table",
    "storage.store", "common.types", "sanitize.digest",
    "serve.core", "serve.journal", "serve.driver", "serve.frontend",
    "serve.admission",
    "workloads", "baselines",
)

LAYERS = _REPO_LAYERS + (
    "repro.other",
    "py.asyncio", "py.json", "py.socket", "py.hashlib", "py.idle", "py.other",
)

#: Public calls between layers: name -> (file suffix, function name).
BOUNDARIES = {
    "engine.locks.enqueue": ("engine/locks.py", "enqueue"),
    "engine.locks.release": ("engine/locks.py", "release"),
    "sim.network.send": ("sim/network.py", "send"),
    "sim.network.send_reliable": ("sim/network.py", "send_reliable"),
    "engine.sequencer.submit": ("engine/sequencer.py", "submit"),
    "engine.cluster.submit": ("engine/cluster.py", "submit"),
    "engine.cluster.advance_epoch": ("engine/cluster.py", "advance_epoch"),
    "storage.store.read": ("storage/store.py", "read"),
    "storage.store.write": ("storage/store.py", "write"),
    "serve.core.tick": ("serve/core.py", "tick"),
    "serve.journal.tick": ("serve/journal.py", "tick"),
    "serve.journal.read_journal": ("serve/journal.py", "read_journal"),
    # Every router implements the one abstract ``Router.route_batch``.
    "core.router.route_batch": ("", "route_batch"),
}


def _layer_of(filename: str, function: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        module = path.rsplit("/repro/", 1)[1].removesuffix(".py")
        dotted = module.replace("/", ".")
        if dotted in _REPO_LAYERS:
            return dotted
        package = dotted.split(".", 1)[0]
        return package if package in _REPO_LAYERS else "repro.other"
    # Built-ins have no file: cProfile names them "<method 'x' of 'T' objects>".
    where = path if path != "~" else function
    if "epoll" in where or "select.select" in where:
        return "py.idle"
    if "asyncio" in where or "selectors.py" in where:
        return "py.asyncio"
    if "json" in where:
        return "py.json"
    if "socket" in where:
        return "py.socket"
    if "hashlib" in where or "blake2" in where:
        return "py.hashlib"
    return "py.other"


def split(profile: cProfile.Profile) -> dict:
    """``{"total_s", "layers": {name: [self_s, calls]}, "boundaries":
    {name: [calls, cum_s]}}`` for one finished profile."""
    layers = {name: [0.0, 0] for name in LAYERS}
    boundaries = {name: [0, 0.0] for name in BOUNDARIES}
    stats = pstats.Stats(profile).stats
    for (filename, _, function), (_, calls, self_s, cum_s, _) in stats.items():
        bucket = layers[_layer_of(filename, function)]
        bucket[0] += self_s
        bucket[1] += calls
        if "/repro/" not in filename:
            continue
        for name, (suffix, wanted) in BOUNDARIES.items():
            if function == wanted and filename.endswith(suffix):
                boundaries[name][0] += calls
                boundaries[name][1] += cum_s
    return {
        "total_s": sum(bucket[0] for bucket in layers.values()),
        "layers": layers,
        "boundaries": boundaries,
    }
