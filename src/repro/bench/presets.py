"""Calibrated defaults shared by all figure benchmarks.

The paper's testbed is 20 physical servers (i5-4460, 24 GB, 10GbE); the
simulator reproduces its *operating regime*, not its absolute numbers.
Calibration (see EXPERIMENTS.md) targets three properties of that regime:

* nodes saturate — executor capacity binds before the epoch-latency
  floor, so routing quality shows up in throughput;
* distributed transactions are dominated by network stalls while holding
  locks (the clogging the paper analyses), so remote-read counts matter;
* load imbalance saturates individual hot nodes long before cluster-wide
  CPU runs out, so balancing matters.

With these presets the strategy ordering of Figure 6(b) reproduces:
Calvin ≈ G-Store < T-Part < LEAP < Hermes.

``bench_scale()`` reads ``REPRO_BENCH_SCALE`` (default 1.0) so the whole
suite can run longer/larger without editing each benchmark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import (
    ClusterConfig,
    CostModel,
    EngineConfig,
)

if TYPE_CHECKING:
    from repro.workloads.google_trace import GoogleTraceConfig

#: Per-operation costs that put the simulated nodes in the paper's regime.
BENCH_COSTS = CostModel(
    local_access_us=40.0,
    logic_us_per_record=70.0,
    net_latency_us=500.0,
)

#: One executor worker per node: capacity binds early, runs stay small.
#: The batch cap keeps the serial scheduler's quadratic routing cost
#: safely below the epoch under overload (0.08 * 250^2 = 5 ms < 10 ms);
#: without it, backlog batches of 1000 would cost 80 ms each and the
#: scheduler would death-spiral — a real failure mode, but Figure 10's
#: subject, not the operating point of the other figures.
BENCH_ENGINE = EngineConfig(
    epoch_us=10_000.0, workers_per_node=1, max_batch_size=250
)


def bench_scale() -> float:
    """Global scale factor for simulated durations (env-overridable)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_jobs() -> int | None:
    """Worker-process count for the benchmark fleet (env-overridable).

    ``REPRO_BENCH_JOBS=N`` fans each figure's independent runs over N
    processes via :func:`repro.bench.harness.parallel_map`; unset (or 1)
    keeps the serial in-process path.  Results are bit-identical either
    way — every run rebuilds its own seeded state — so this only trades
    wall-clock for cores.
    """
    value = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return value if value > 1 else None


def bench_cluster_config(
    num_nodes: int, store_backend: str = "dict"
) -> ClusterConfig:
    """The calibrated cluster configuration for a benchmark."""
    return ClusterConfig(
        num_nodes=num_nodes,
        engine=BENCH_ENGINE,
        costs=BENCH_COSTS,
        store_backend=store_backend,
    )


def bench_trace_config(
    num_machines: int, duration_s: float
) -> GoogleTraceConfig:
    """A Google-style trace sized for a short benchmark window.

    Spike/shift counts scale with the window so short runs keep the same
    *density* of episodic events as the paper's 2160 s emulation.  The
    trace module (numpy) is imported only when a trace is sized.
    """
    from repro.workloads.google_trace import GoogleTraceConfig

    per_minute = duration_s / 60.0
    return GoogleTraceConfig(
        num_machines=num_machines,
        duration_s=duration_s,
        tick_s=max(1.0, duration_s / 60.0),
        spikes_per_machine=max(1.0, 3.0 * per_minute),
        shifts_per_machine=max(1.0, 1.0 * per_minute),
    )


#: Offered Google-YCSB transactions per second per unit of trace load:
#: the open-loop rate is the trace's total-load envelope times this.
GOOGLE_RATE_SCALE = 4_500.0

#: Downscaled Google-YCSB defaults used by Figures 2 and 6-10.
GOOGLE_BENCH = {
    "num_nodes": 8,
    "num_keys": 40_000,
    "duration_s": 5.0,
    "clients": 1_500,
}


# ----------------------------------------------------------------------
# Scale-out profiles (the ExperimentSpec ``scale`` axis)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScaleProfile:
    """One point on the scale axis: keyspace, cluster width, backend.

    ``num_keys`` is the *total* keyspace the runner sizes the workload
    to; ``store_backend`` selects the per-node record store (the array
    backend is what makes millions of resident records affordable —
    see :mod:`repro.storage.store`).  ``clients``/``duration_s`` are
    defaults tuned so the profile completes on CI hardware; specs can
    still override both.
    """

    name: str
    num_keys: int
    num_nodes: int
    store_backend: str = "array"
    clients: int = 2_000
    duration_s: float = 2.0


#: Named profiles for ``ExperimentSpec.scale``.  "2m" is the CI-sized
#: scale smoke (2M keys over 50 nodes ≈ the paper's per-node record
#: density at 1/5 the node count); "20m" is the full DESIGN §15 scale
#: target for workstation runs.
SCALE_PROFILES: dict[str, ScaleProfile] = {
    "2m": ScaleProfile(
        name="2m", num_keys=2_000_000, num_nodes=50,
        clients=2_000, duration_s=2.0,
    ),
    "20m": ScaleProfile(
        name="20m", num_keys=20_000_000, num_nodes=100,
        clients=4_000, duration_s=2.0,
    ),
}
