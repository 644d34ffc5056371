"""The paper's claims, one row each, over runs made once.

Every shape the evaluation (§5, Figures 1-14) and the design ablations
(§3.2, §4.1) rest on is one :class:`Claim`: an id, the figure, the
paper's statement in one line, and a predicate over two operands —
``lhs OP rhs × bound``, or ``rhs[0] × bound[0] < lhs < rhs[1] × bound[1]``
for a two-sided band.  An operand with no ``rhs`` compares against the
bound alone.  ``benchmarks/test_claims.py`` checks every row and prints
its operands and signed margin.

An operand names the runs it reads.  A :class:`Run` is keyed by what
determines it, and :func:`run_all` makes every distinct run once through
one ``parallel_map`` fleet: Figure 8 reads Figure 7's six rows, Figures
2, 6(a) and 6(b) share their Calvin, Clay, LEAP and Hermes rows, the
prescient ablation shares Figure 7's Hermes row, and the eviction
ablation shares the capacity sweep's LRU cell.  A spec row's key is its
kind, seed, duration, scale, strategy, sweep point and params, less the
params that cannot reach that row (another row's Schism training period,
the sweep's point list); ``tests/bench/test_api.py`` checks the property
the sharing rests on.  Where a ``repro.api`` preset names a figure's
runs, the table takes them from :func:`~repro.api.preset_spec`.

``REPRO_BENCH_SCALE`` scales every simulated duration but Figure 10's;
``REPRO_BENCH_JOBS`` sets the fleet's width.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.api import ExperimentSpec, preset_spec
from repro.bench.figures import KINDS, google_spec, run_task
from repro.bench.harness import parallel_map, run_google_ycsb
from repro.bench.presets import (
    BENCH_COSTS,
    GOOGLE_BENCH,
    bench_cluster_config,
    bench_scale,
)
from repro.bench.specs import make_strategy
from repro.common.config import ClusterConfig, EngineConfig, FusionConfig
from repro.common.rng import DeterministicRNG
from repro.core.compressed_table import CompressedLookupTable
from repro.workloads.google_trace import (
    GoogleTraceConfig,
    SyntheticGoogleTrace,
)
from repro.workloads.multitenant import (
    MultiTenantConfig,
    hash_partitioner,
    perfect_partitioner,
    skewed_partitioner,
)
from repro.workloads.ycsb import YCSBConfig

# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One simulation (or one in-process measurement): ``fn(*args)``."""

    key: str
    fn: Callable
    args: tuple


def execute(run: Run):
    """The fleet worker."""
    return run.fn(*run.args)


def row(spec: ExperimentSpec, strategy: str, point=None) -> Run:
    """The run of ``spec``'s ``strategy`` row (at sweep ``point``)."""
    params = dict(spec.params)
    params.pop(KINDS[spec.kind].sweep_key, None)
    periods = params.pop("schism_periods", None) or {}
    if strategy in periods:
        params["schism_periods"] = {strategy: periods[strategy]}
    key = repr((spec.kind, spec.seed, spec.duration_s, spec.scale, strategy,
                point, sorted(params.items())))
    task = (spec, strategy) if point is None else (spec, strategy, point)
    return Run(key, run_task, (task,))


def rows(spec: ExperimentSpec) -> list[Run]:
    """Every row of ``spec``, sweep points outermost."""
    sweep_key = KINDS[spec.kind].sweep_key
    if sweep_key is None:
        return [row(spec, name) for name in spec.strategies]
    return [row(spec, name, point) for point in spec.params[sweep_key]
            for name in spec.strategies]


def run_batch(batch_size: int):
    """Figure 10: Hermes with ``batch_size`` requests per routing
    decision, the epoch scaled to hold 20,000 offered txns/s fixed."""
    num_nodes, num_keys = GOOGLE_BENCH["num_nodes"], GOOGLE_BENCH["num_keys"]
    duration_us = 4_000_000.0
    config = ClusterConfig(
        num_nodes=num_nodes,
        engine=EngineConfig(
            epoch_us=max(250.0, batch_size / 20_000.0 * 1e6),
            workers_per_node=1,
            max_batch_size=batch_size,
        ),
        costs=BENCH_COSTS,
    )
    return run_google_ycsb(
        google_spec("hermes", num_keys),
        YCSBConfig(num_keys=num_keys, num_partitions=num_nodes,
                   zipf_theta=0.8, global_cycle_us=duration_us / 2),
        cluster_config=config,
        duration_us=duration_us,
        warmup_us=1_000_000.0,
    )


def run_fusion(capacity: int, eviction: str):
    """The ``google`` kind's 4 s Hermes row with the fusion table swapped."""
    num_nodes = GOOGLE_BENCH["num_nodes"]
    duration_us = 4.0 * bench_scale() * 1e6
    spec = make_strategy(
        "hermes", fusion=FusionConfig(capacity=capacity, eviction=eviction)
    )
    spec.name = f"hermes-{eviction}-{capacity}"
    return run_google_ycsb(
        spec,
        YCSBConfig(num_keys=GOOGLE_BENCH["num_keys"], num_partitions=num_nodes,
                   zipf_theta=0.8, global_cycle_us=duration_us / 2),
        cluster_config=bench_cluster_config(num_nodes),
        duration_us=duration_us,
    )


def make_trace() -> SyntheticGoogleTrace:
    """Figure 1's trace at the paper's emulation scale: 2160 s, 20
    machines."""
    config = GoogleTraceConfig(num_machines=20, duration_s=2160.0)
    return SyntheticGoogleTrace(config, DeterministicRNG(7, "fig1"))


LOOKUP_KEYS, LOOKUP_NODES = 50_000, 20


def make_lookup_tables() -> dict[str, CompressedLookupTable]:
    """§4.1's compressed full lookup table over three placements, each
    probed over a key sample."""
    rng = DeterministicRNG(13, "compression")
    uniform = [k % LOOKUP_NODES for k in range(LOOKUP_KEYS)]
    # Range placement with a hot 2 % fused anywhere.
    clustered = [k * LOOKUP_NODES // LOOKUP_KEYS for k in range(LOOKUP_KEYS)]
    for _ in range(LOOKUP_KEYS // 50):
        clustered[rng.randint(0, LOOKUP_KEYS - 1)] = rng.randint(
            0, LOOKUP_NODES - 1
        )
    # Nearly everything on one node.
    skewed = [0] * LOOKUP_KEYS
    for _ in range(LOOKUP_KEYS // 200):
        skewed[rng.randint(0, LOOKUP_KEYS - 1)] = rng.randint(
            1, LOOKUP_NODES - 1
        )
    tables = {}
    for label, assignment in (("uniform", uniform), ("clustered", clustered),
                              ("skewed", skewed)):
        table = CompressedLookupTable(assignment, block_size=128)
        for key in range(0, LOOKUP_KEYS, 997):
            table.lookup(key)
        tables[label] = table
    return tables


# The figures' runs.  Figure 8 reads FIG07's rows.
FIG02 = preset_spec("fig02")
FIG06A = preset_spec("fig06a")
FIG06B = preset_spec("fig06b")
FIG07 = preset_spec("fig07")
FIG09 = {
    (mean, std): ExperimentSpec(
        kind="google", strategies=("calvin", "leap", "hermes"), duration_s=2.5,
        params={
            "rate_scale": 3_500.0 / (mean / 4.0),
            "ycsb_overrides": {
                "txn_len_mean": float(mean), "txn_len_std": float(std),
            },
        },
    )
    for mean, std in ((5, 5), (10, 5), (10, 10), (20, 5), (20, 10), (20, 20))
}
FIG10 = {b: Run(f"fig10 batch={b}", run_batch, (b,))
         for b in (10, 50, 200, 1000)}
FIG11 = ExperimentSpec(
    kind="tpcc_sweep", strategies=("calvin", "clay", "tpart", "hermes"),
    params={"hot_fractions": (0.0, 0.5, 0.8, 0.9)},
)
FIG12 = preset_spec("fig12")
FIG13 = {
    label: ExperimentSpec(
        kind="multitenant", strategies=("calvin", "clay", "leap", "hermes"),
        duration_s=4.0,
        params={
            "config": MultiTenantConfig(
                num_nodes=4, tenants_per_node=4, records_per_tenant=2_500,
                rotation_interval_us=2_500_000.0,
            ),
            "partitioner_factory": factory,
        },
    )
    for label, factory in (("perfect", perfect_partitioner),
                           ("hash", hash_partitioner),
                           ("skewed", skewed_partitioner))
}
FIG14 = ExperimentSpec(kind="scaleout", strategies=(
    "squall", "clay+squall", "hermes-nocold-5", "hermes-nocold-10",
    "hermes-cold-5",
))
PRESCIENT = ExperimentSpec(
    kind="google", duration_s=4.0,
    strategies=("hermes-noreorder", "hermes-nobalance", "hermes"),
)
#: Fusion-table capacities of 0.5 %, 2.5 % and 10 % of the keys.
SMALL, MID, LARGE = (GOOGLE_BENCH["num_keys"] // d for d in (200, 40, 10))
FUSION = {
    (capacity, eviction): Run(f"fusion capacity={capacity} {eviction}",
                              run_fusion, (capacity, eviction))
    for capacity, eviction in (
        (SMALL, "lru"), (MID, "lru"), (LARGE, "lru"), (MID, "fifo"),
    )
}
TRACE = Run("fig01 trace", make_trace, ())
LOOKUP = Run("lookup tables", make_lookup_tables, ())

#: Throughput series written to ``results/<name>_series.csv``.
SERIES = {name: rows(spec) for name, spec in (
    ("fig02", FIG02), ("fig06a", FIG06A), ("fig06b", FIG06B),
    ("fig12", FIG12), ("fig14", FIG14),
)}

RUNS: list[Run] = [
    *FIG10.values(),
    *(run for spec in (FIG02, FIG06A, FIG06B, FIG07, *FIG09.values(), FIG11,
                       FIG12, *FIG13.values(), FIG14, PRESCIENT)
      for run in rows(spec)),
    *FUSION.values(), TRACE, LOOKUP,
]


def run_all(jobs: int | None = None) -> dict[str, object]:
    """Make every distinct run once, through one fleet; results by key."""
    distinct = list({run.key: run for run in RUNS}.values())
    return {run.key: result for run, result in
            zip(distinct, parallel_map(execute, distinct, jobs=jobs))}


# ----------------------------------------------------------------------
# Operands and claims
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Operand:
    """A number read off runs: ``fn`` applied to their results, in order."""

    label: str
    runs: tuple[Run, ...]
    fn: Callable[..., float]

    def value(self, results: dict) -> float:
        return self.fn(*(results[run.key] for run in self.runs))


def tput(run: Run, label: str) -> Operand:
    return Operand(f"{label} txn/s", (run,), lambda r: r.throughput_per_s)


def stage(run: Run, label: str, name: str) -> Operand:
    return Operand(f"{label} {name} us", (run,),
                   lambda r: r.latency_breakdown_us[name])


def cpu(run: Run, label: str) -> Operand:
    return Operand(f"{label} cpu", (run,), lambda r: r.cpu_utilization)


def remote_per_commit(run: Run, label: str) -> Operand:
    return Operand(f"{label} remote reads/commit", (run,),
                   lambda r: r.remote_reads / max(1, r.commits))


def over_runs(label: str, runs, fn: Callable[[tuple], float]) -> Operand:
    """An operand over several runs: ``fn`` gets their results' tuple."""
    return Operand(label, tuple(runs), lambda *results: fn(results))


def factor(label: str) -> Operand:
    return Operand(f"{label} compression x", (LOOKUP,),
                   lambda tables: tables[label].compression_factor())


_COMPARE = {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Verdict:
    lhs: float
    rhs: tuple[float, ...]
    holds: bool
    margin: float


def _relative(gap: float, threshold: float) -> float:
    """``gap`` as a fraction of the threshold (of itself against 0)."""
    if threshold:
        return gap / abs(threshold)
    return 1.0 if gap > 0 else -1.0 if gap < 0 else 0.0


@dataclass(frozen=True)
class Claim:
    """One checkable statement: ``lhs op rhs × bound`` (``rhs`` 1 when
    absent), or for ``op == "in"``,
    ``rhs[0] × bound[0] < lhs < rhs[1] × bound[1]``."""

    id: str
    figure: str
    statement: str
    lhs: Operand
    op: str
    rhs: Operand | tuple | None = None
    bound: float | tuple[float, float] = 1.0

    def evaluate(self, results: dict) -> Verdict:
        lhs = self.lhs.value(results)
        if self.op == "in":
            rhs = tuple(
                1.0 if r is None else r.value(results)
                for r in (self.rhs or (None, None))
            )
            lo, hi = rhs[0] * self.bound[0], rhs[1] * self.bound[1]
            return Verdict(lhs, rhs, lo < lhs < hi, min(
                _relative(lhs - lo, lo), _relative(hi - lhs, hi)))
        rhs = 1.0 if self.rhs is None else self.rhs.value(results)
        threshold = rhs * self.bound
        gap = lhs - threshold if self.op[0] == ">" else threshold - lhs
        return Verdict(lhs, (rhs,), _COMPARE[self.op](lhs, threshold),
                       _relative(gap, threshold))

    def describe(self, verdict: Verdict) -> str:
        """One line: the operands, the bound and the signed margin."""
        if self.op == "in":
            sides = [_side(r, v, b) for r, v, b in
                     zip(self.rhs or (None, None), verdict.rhs, self.bound)]
            predicate = (f"{sides[0]} < {self.lhs.label} = "
                         f"{_num(verdict.lhs)} < {sides[1]}")
        else:
            predicate = (f"{self.lhs.label} = {_num(verdict.lhs)} {self.op} "
                         f"{_side(self.rhs, verdict.rhs[0], self.bound)}")
        status = "holds" if verdict.holds else "FAILS"
        return (f"{self.id:<34} {status:<5} margin {verdict.margin:+8.1%}  "
                f"{predicate}")


def _num(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1_000 else f"{value:.4g}"


def _side(rhs: Operand | None, value: float, bound: float) -> str:
    if rhs is None:
        return _num(bound)
    scale = "" if bound == 1.0 else f"{bound:g} x "
    return f"{scale}{rhs.label} = {_num(value)}"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


def _tput(spec: ExperimentSpec, name: str) -> Operand:
    return tput(row(spec, name), name)


def _dip(result) -> float:
    """Trough over peak of the post-warm-up throughput windows."""
    values = result.throughput_series.values[2:]
    peak = max(values) if values else 1.0
    trough = min(values) if values else 0.0
    return trough / peak if peak else 0.0


def _phase_mean(result, lo_us: float, hi_us: float) -> float:
    """Mean window throughput over ``[lo_us, hi_us)``."""
    series = result.throughput_series
    values = [v for t, v in zip(series.times, series.values)
              if lo_us <= t < hi_us]
    return sum(values) / len(values) if values else 0.0


def _worst_after(result, squall) -> float:
    """Worst window between the scale-out event and 80 % of the run."""
    series = result.throughput_series
    event_us, duration = squall.extras["event_us"], squall.duration_us
    values = [v for t, v in zip(series.times, series.values)
              if event_us < t < duration * 0.8]
    return min(values) if values else 0.0


_FIG09_RUNS = [row(spec, name) for spec in FIG09.values()
               for name in ("calvin", "hermes")]


def _fig09(label: str, fn: Callable[[list[float]], float]) -> Operand:
    """``fn`` of Hermes' improvement over Calvin (%) per length setting."""
    return over_runs(label, _FIG09_RUNS, lambda r: fn([
        100 * (hermes.throughput_per_s / calvin.throughput_per_s - 1)
        for calvin, hermes in zip(r[::2], r[1::2])
    ]))


def _fig10_best(results: tuple) -> int:
    tputs = dict(zip(FIG10, (r.throughput_per_s for r in results)))
    return max(FIG10, key=lambda b: tputs[b])


FIG10_BEST_TPUT = over_runs("best batch txn/s", FIG10.values(),
                            lambda r: max(x.throughput_per_s for x in r))


def _fig13_best(label: str) -> Operand:
    return over_runs(f"best {label} txn/s", rows(FIG13[label]),
                     lambda r: max(x.throughput_per_s for x in r))


def _fig14_phase(name: str, phase: str) -> Operand:
    """Mean throughput of ``name`` in the half-event span before the new
    node (``"before"``) or the last quarter of the run (``"late"``), both
    timed off Squall's row."""
    def mean(r):
        squall = r[1]
        event_us, duration = squall.extras["event_us"], squall.duration_us
        if phase == "before":
            return _phase_mean(r[0], event_us / 2, event_us)
        return _phase_mean(r[0], duration * 0.75, duration)

    return over_runs(f"{name} {phase} txn/s",
                     (row(FIG14, name), row(FIG14, "squall")), mean)


_FIG07_BASELINES = [row(FIG07, n) for n in FIG07.strategies if n != "hermes"]

CLAIMS: list[Claim] = [
    # Figure 1 — the Google-cluster trace's features.
    Claim("fig01-spikes", "1",
          "Most machines show episodic spikes of at least twice their median",
          Operand("share of machines with a 2x spike", (TRACE,), lambda t: (
              (t.loads > 2 * np.median(t.loads, axis=1, keepdims=True))
              .sum(axis=1) > 0).mean()),
          ">", bound=0.6),
    Claim("fig01-heterogeneous", "1", "Machine baselines differ",
          Operand("std of machine mean loads", (TRACE,),
                  lambda t: t.loads.mean(axis=1).std()),
          ">", bound=0.02),
    Claim("fig01-regime-shift", "1",
          "Re-provisioning shifts some machine's load between halves",
          Operand("largest half-to-half mean shift", (TRACE,),
                  lambda t: np.abs(
                      t.loads[:, :t.loads.shape[1] // 2].mean(axis=1)
                      - t.loads[:, t.loads.shape[1] // 2:].mean(axis=1)
                  ).max()),
          ">", bound=0.1),
    Claim("fig01-weights-normalised", "1",
          "Per-tick machine weights form a distribution",
          Operand("max |sum of weights - 1|", (TRACE,),
                  lambda t: np.abs(t.weights.sum(axis=0) - 1.0).max()),
          # np.allclose(..., 1.0): atol + rtol * |1.0|
          "<=", bound=1e-08 + 1e-05 * 1.0),
    # Figure 2 — look-back re-partitioning barely helps.
    Claim("fig02-all-commit", "2", "Calvin, Clay and LEAP all commit work",
          over_runs("min txn/s", rows(FIG02),
                    lambda r: min(x.throughput_per_s for x in r)),
          ">", bound=0.0),
    Claim("fig02-clay-not-above-calvin", "2",
          "Clay does not significantly beat naive range partitioning",
          _tput(FIG02, "clay"), "<", _tput(FIG02, "calvin"), 1.3),
    Claim("fig02-leap-above-calvin", "2", "LEAP beats range partitioning",
          _tput(FIG02, "leap"), ">", _tput(FIG02, "calvin")),
    Claim("fig02-leap-above-clay", "2", "LEAP beats look-back Clay",
          _tput(FIG02, "leap"), ">", _tput(FIG02, "clay")),
    # Figure 6(a) — Hermes vs. look-back approaches.
    *(Claim(f"fig06a-hermes-above-{name}", "6a",
            "Hermes beats every look-back approach",
            _tput(FIG06A, "hermes"), ">", _tput(FIG06A, name))
      for name in FIG06A.strategies if name != "hermes"),
    Claim("fig06a-clay-not-above-calvin", "6a",
          "Clay does not significantly beat static ranges",
          _tput(FIG06A, "clay"), "<", _tput(FIG06A, "calvin"), 1.3),
    # Figure 6(b) — Hermes vs. on-line approaches.
    Claim("fig06b-hermes-above-leap", "6b", "Hermes beats LEAP",
          _tput(FIG06B, "hermes"), ">", _tput(FIG06B, "leap")),
    Claim("fig06b-hermes-above-tpart", "6b", "Hermes beats T-Part",
          _tput(FIG06B, "hermes"), ">", _tput(FIG06B, "tpart")),
    Claim("fig06b-leap-above-calvin", "6b", "LEAP improves on Calvin",
          _tput(FIG06B, "leap"), ">", _tput(FIG06B, "calvin")),
    Claim("fig06b-tpart-above-calvin", "6b", "T-Part improves on Calvin",
          _tput(FIG06B, "tpart"), ">", _tput(FIG06B, "calvin")),
    Claim("fig06b-gstore-near-calvin", "6b",
          "G-Store is within a small band of Calvin (paper: +2 %)",
          over_runs("|gstore/calvin - 1|",
                    (row(FIG06B, "gstore"), row(FIG06B, "calvin")),
                    lambda r: abs(r[0].throughput_per_s
                                  / r[1].throughput_per_s - 1)),
          "<", bound=0.35),
    Claim("fig06b-hermes-gain", "6b",
          "Hermes gains at least a quarter over Calvin (paper: 29-137 %)",
          _tput(FIG06B, "hermes"), ">", _tput(FIG06B, "calvin"), 1.25),
    # Figure 7 — the latency breakdown.
    Claim("fig07-lock-wait", "7", "Hermes cuts lock wait against Calvin",
          stage(row(FIG07, "hermes"), "hermes", "lock_wait"), "<",
          stage(row(FIG07, "calvin"), "calvin", "lock_wait")),
    Claim("fig07-remote-wait", "7",
          "Hermes cuts remote-data wait against Calvin",
          stage(row(FIG07, "hermes"), "hermes", "remote_wait"), "<",
          stage(row(FIG07, "calvin"), "calvin", "remote_wait")),
    Claim("fig07-scheduling-share", "7",
          "Prescient scheduling is a minority share of latency (paper: ~4 %)",
          stage(row(FIG07, "hermes"), "hermes", "scheduling"), "<",
          Operand("hermes total us", (row(FIG07, "hermes"),),
                  lambda r: sum(r.latency_breakdown_us.values())),
          0.2),
    # Figure 8 — CPU and network usage (Figure 7's runs).
    Claim("fig08-hermes-cpu", "8", "Hermes uses the most CPU (better balance)",
          cpu(row(FIG07, "hermes"), "hermes"), ">=",
          over_runs("max baseline cpu", _FIG07_BASELINES,
                    lambda r: max(x.cpu_utilization for x in r)),
          0.95),
    Claim("fig08-hermes-network", "8",
          "Hermes' network bytes per txn stay within the baselines' band",
          Operand("hermes net B/commit", (row(FIG07, "hermes"),),
                  lambda r: r.net_bytes_per_commit),
          "<=",
          over_runs("max baseline net B/commit", _FIG07_BASELINES,
                    lambda r: max(x.net_bytes_per_commit for x in r)),
          1.2),
    Claim("fig08-tpart-cpu", "8",
          "T-Part's CPU use does not collapse below Calvin's",
          cpu(row(FIG07, "tpart"), "tpart"), ">=",
          cpu(row(FIG07, "calvin"), "calvin"), 0.8),
    # Figure 9 — transaction length.
    Claim("fig09-gain-mostly-positive", "9",
          "Hermes improves on Calvin at most length settings",
          _fig09("settings with hermes gain > 0",
                 lambda gains: sum(1 for v in gains if v > 0)),
          ">=", bound=4),
    Claim("fig09-gain-floor", "9", "No length setting loses much to Calvin",
          _fig09("min hermes gain %", min), ">", bound=-10.0),
    Claim("fig09-gain-mean", "9", "Hermes improves on Calvin on average",
          _fig09("mean hermes gain %", lambda gains: sum(gains) / len(gains)),
          ">", bound=3.0),
    # Figure 10 — batch size.
    Claim("fig10-interior-optimum", "10", "The best batch size is interior",
          over_runs("best batch", FIG10.values(), _fig10_best),
          "in", bound=(10, 1000)),
    Claim("fig10-huge-batch-loses", "10", "Huge batches pay the routing cost",
          tput(FIG10[1000], "batch=1000"), "<", FIG10_BEST_TPUT),
    Claim("fig10-tiny-batch-loses", "10", "Tiny batches lose look-ahead",
          tput(FIG10[10], "batch=10"), "<", FIG10_BEST_TPUT),
    Claim("fig10-lookahead", "10",
          "Bigger batches need no more remote reads per commit",
          remote_per_commit(FIG10[200], "batch=200"), "<=",
          remote_per_commit(FIG10[10], "batch=10"), 1.05),
    # Figure 11 — TPC-C hot spots.
    Claim("fig11-normal-comparable", "11",
          "On the normal workload Hermes is comparable to Calvin",
          tput(row(FIG11, "hermes", 0.0), "hermes@0.0"), ">",
          tput(row(FIG11, "calvin", 0.0), "calvin@0.0"), 0.75),
    Claim("fig11-hot-hermes-gain", "11",
          "Under a 90 % hot spot Hermes clearly beats Calvin",
          tput(row(FIG11, "hermes", 0.9), "hermes@0.9"), ">",
          tput(row(FIG11, "calvin", 0.9), "calvin@0.9"), 1.2),
    Claim("fig11-hot-clay-floor", "11",
          "Under a 90 % hot spot Clay tracks Calvin (deviation: not above)",
          tput(row(FIG11, "clay", 0.9), "clay@0.9"), ">",
          tput(row(FIG11, "calvin", 0.9), "calvin@0.9"), 0.85),
    Claim("fig11-calvin-degrades", "11", "Concentration hurts Calvin",
          tput(row(FIG11, "calvin", 0.9), "calvin@0.9"), "<",
          tput(row(FIG11, "calvin", 0.0), "calvin@0.0")),
    # Figure 12 — multi-tenant rotating hot spot.
    *(Claim(f"fig12-hermes-above-{name}", "12", f"Hermes beats {name}",
            _tput(FIG12, "hermes"), ">", _tput(FIG12, name))
      for name in ("calvin", "tpart", "leap")),
    Claim("fig12-hermes-near-clay", "12",
          "Clay is competitive, but Hermes does not lose to it meaningfully",
          _tput(FIG12, "hermes"), ">", _tput(FIG12, "clay"), 0.9),
    Claim("fig12-stability", "12",
          "Rotations dent Hermes no deeper than Calvin",
          Operand("hermes trough/peak", (row(FIG12, "hermes"),), _dip), ">=",
          Operand("calvin trough/peak", (row(FIG12, "calvin"),), _dip), 0.8),
    # Figure 13 — initial partitioning.
    *(Claim(f"fig13-hermes-near-best-{label}", "13",
            "Hermes is good on every initial layout",
            _tput(FIG13[label], "hermes"), ">=", _fig13_best(label), 0.75)
      for label in FIG13),
    Claim("fig13-hash-hermes-above-calvin", "13",
          "On a hash layout Hermes fuses co-accessed records and beats Calvin",
          _tput(FIG13["hash"], "hermes"), ">", _tput(FIG13["hash"], "calvin")),
    Claim("fig13-hash-leap-above-calvin", "13",
          "On a hash layout LEAP fuses co-accessed records and beats Calvin",
          _tput(FIG13["hash"], "leap"), ">", _tput(FIG13["hash"], "calvin")),
    Claim("fig13-skewed-hermes-above-leap", "13",
          "On a skewed layout LEAP keeps the skew and trails Hermes",
          _tput(FIG13["skewed"], "hermes"), ">",
          _tput(FIG13["skewed"], "leap")),
    # Figure 14 — scale-out.
    *(Claim(f"fig14-ends-higher-{name}", "14",
            "Every system ends at least as good as before the new node",
            _fig14_phase(name, "late"), ">",
            _fig14_phase(name, "before"), 0.9)
      for name in FIG14.strategies),
    Claim("fig14-no-squall-dip", "14",
          "Hermes never dips below Squall's migration trough",
          over_runs("hermes-cold-5 worst window",
                    (row(FIG14, "hermes-cold-5"), row(FIG14, "squall")),
                    lambda r: _worst_after(r[0], r[1])),
          ">=",
          over_runs("squall worst window", (row(FIG14, "squall"),),
                    lambda r: _worst_after(r[0], r[0]))),
    Claim("fig14-larger-table", "14",
          "A larger fusion table moves more hot data: at least as good",
          _tput(FIG14, "hermes-nocold-10"), ">=",
          _tput(FIG14, "hermes-nocold-5"), 0.9),
    # Ablation (§4.1) — fusion-table capacity and eviction policy.
    Claim("abl-fusion-small-evicts-more", "abl",
          "A tiny fusion table evicts more",
          Operand("0.5 % table evictions", (FUSION[SMALL, "lru"],),
                  lambda r: r.evictions),
          ">=",
          Operand("10 % table evictions", (FUSION[LARGE, "lru"],),
                  lambda r: r.evictions)),
    Claim("abl-fusion-small-performs", "abl",
          "A table of a few percent of the data still performs",
          tput(FUSION[SMALL, "lru"], "0.5 % table"), ">",
          tput(FUSION[LARGE, "lru"], "10 % table"), 0.6),
    Claim("abl-eviction-viable", "abl", "FIFO and LRU eviction both work",
          over_runs("min of fifo, lru txn/s",
                    (FUSION[MID, "fifo"], FUSION[MID, "lru"]),
                    lambda r: min(x.throughput_per_s for x in r)),
          ">", bound=0.0),
    Claim("abl-eviction-band", "abl",
          "FIFO and LRU stay within a modest band of each other",
          over_runs("fifo/lru txn/s",
                    (FUSION[MID, "fifo"], FUSION[MID, "lru"]),
                    lambda r: r[0].throughput_per_s / r[1].throughput_per_s),
          "in", bound=(0.7, 1.4)),
    # Ablation (§4.1) — a compressed full lookup table instead.
    Claim("abl-lookup-skewed-factor", "abl",
          "Skewed placement compresses by well over an order of magnitude",
          factor("skewed"), ">", bound=20),
    Claim("abl-lookup-uniform-factor", "abl",
          "Uniform placement compresses only a few times",
          factor("uniform"), "in", bound=(2.0, 10.0)),
    Claim("abl-lookup-ordering", "abl",
          "The compression factor grows with placement skew",
          factor("clustered"), "in", (factor("uniform"), factor("skewed")),
          (0.9, 1.0)),
    Claim("abl-lookup-decode-cost", "abl",
          "Every compressed lookup pays tens of symbol decodes",
          Operand("uniform symbol decodes/lookup", (LOOKUP,),
                  lambda tables: tables["uniform"].mean_decode_cost()),
          ">", bound=10),
    # Ablation (§3.2) — the prescient router's two phases.
    Claim("abl-prescient-above-noreorder", "abl",
          "Full Hermes at least matches Hermes without reordering",
          _tput(PRESCIENT, "hermes"), ">=",
          _tput(PRESCIENT, "hermes-noreorder"), 0.97),
    Claim("abl-prescient-above-nobalance", "abl",
          "Full Hermes at least matches Hermes without balancing",
          _tput(PRESCIENT, "hermes"), ">=",
          _tput(PRESCIENT, "hermes-nobalance"), 0.97),
    Claim("abl-prescient-reorder-remote", "abl",
          "Reordering cuts remote reads per commit",
          remote_per_commit(row(PRESCIENT, "hermes"), "hermes"), "<=",
          remote_per_commit(row(PRESCIENT, "hermes-noreorder"),
                            "hermes-noreorder"), 1.1),
    Claim("abl-prescient-balance-cpu", "abl",
          "Balancing spreads work: CPU use at least holds",
          cpu(row(PRESCIENT, "hermes"), "hermes"), ">=",
          cpu(row(PRESCIENT, "hermes-nobalance"), "hermes-nobalance"), 0.9),
]
