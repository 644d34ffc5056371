"""The experiment layer's front door: one spec, one entry point.

    from repro.api import ExperimentSpec, run_experiment

    results = run_experiment(ExperimentSpec(
        kind="google",
        strategies=("calvin", "hermes"),
        duration_s=4.0,
        jobs=2,
    ))

Every cross-cutting knob lives on the spec exactly once (``seed``,
``duration_s``, ``jobs``, ``keep_cluster``, ``trace``, ``scale``);
kind-specific knobs go in ``params``, and each kind sets its own
warm-up and stats window.  :func:`run_experiment` validates the spec,
fans it out into one task per strategy (per strategy × sweep point for
the sweep kinds) and regroups the results; what a kind *does* with a
task lives in :mod:`repro.bench.figures`, which reads the spec itself
— imports run one way, ``repro.api`` → kind workers → ``harness``.

``PRESETS`` names ready-made specs for the paper's figures; the
observability CLI (``python -m repro.obs``) records traced runs through
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from difflib import get_close_matches
from typing import TYPE_CHECKING, Callable

from repro.bench.figures import (
    KINDS,
    REPLICATION_KEYS,
    run_task,
    scale_profile,
)
from repro.bench.harness import parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

__all__ = ["ExperimentSpec", "PRESETS", "preset_spec", "run_experiment"]


@dataclass
class ExperimentSpec:
    """Everything needed to launch one experiment (fleet or single run).

    ``kind`` selects the experiment family: ``"google"`` (Google-trace
    YCSB, Figures 2/6–9), ``"tpcc"`` / ``"tpcc_sweep"`` (Figure 11),
    ``"multitenant"`` (Figures 12/13), ``"scaleout"`` (Figure 14),
    ``"forecast_robustness"`` (the de-oracled robustness curve),
    ``"replication"`` (read replication vs. migration),
    ``"straggler_clone"`` (request cloning under a straggler) and
    ``"serving"`` (journaled online serving, replay-verified).
    ``strategies`` are strategy names (scale-out: variant names), one
    run each.  ``duration_s`` is in *unscaled* simulated seconds — the
    ``REPRO_BENCH_SCALE`` factor is applied when the runs are built.

    ``trace`` attaches one :class:`repro.obs.tracer.Tracer` to the runs; traced
    experiments must be serial (``jobs`` unset or 1) because a live
    tracer cannot cross process boundaries.
    """

    kind: str
    strategies: tuple[str, ...] = ()
    seed: int = 7
    duration_s: float | None = None
    jobs: int | None = None
    keep_cluster: bool = False
    trace: "Tracer | None" = None
    scale: str | None = None
    """Named :data:`repro.bench.presets.SCALE_PROFILES` entry.  Widens
    the cluster (50-100 nodes) and sizes the keyspace (2M-20M keys);
    kind params and ``duration_s`` still override the profile's
    defaults.  Supported by the ``google``, ``multitenant`` and
    ``forecast_robustness`` kinds."""

    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.strategies = tuple(self.strategies)

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (specs are reusable)."""
        return replace(self, **changes)


def run_experiment(spec: ExperimentSpec):
    """Run the experiment the spec describes.

    Returns a list of :class:`~repro.bench.harness.ExperimentResult` in
    ``strategies`` order — except for the sweep kinds (``"tpcc_sweep"``,
    ``"forecast_robustness"``), which return the ``{point: [results]}``
    grid.  A sweep fans the whole (strategy × point) product into one
    pool, so ``jobs`` parallelism is not capped by the strategy count.
    """
    kind = KINDS.get(spec.kind)
    if kind is None:
        raise ValueError(
            f"unknown experiment kind {spec.kind!r}; "
            f"expected one of {sorted(KINDS)}"
        )
    if not spec.strategies:
        raise ValueError("ExperimentSpec.strategies must name at least one run")
    # Validate the scale axis up front for every kind: runners that
    # don't consult it would otherwise silently ignore a stray scale=.
    scale_profile(spec)
    for name in kind.unsupported:
        if _is_set(spec, name):
            raise ValueError(
                f"kind {spec.kind!r} does not support {name}="
            )
    if spec.jobs is not None and spec.jobs > 1:
        for name in ("keep_cluster", "trace"):
            if _is_set(spec, name):
                # Fail clearly instead of with a pickle traceback.
                raise ValueError(
                    f"{name}= holds a live in-process object (a Cluster's "
                    "generators and kernel heap, a Tracer), which cannot "
                    "be shipped between processes; use jobs=1 (or None)"
                )
    _reject_unknown(
        f"params for kind {spec.kind!r}",
        set(spec.params),
        VALID_PARAMS[spec.kind],
    )
    replication = spec.params.get("replication")
    if replication is not None:
        _reject_unknown(
            "params['replication'] keys", set(replication), REPLICATION_KEYS
        )

    if kind.sweep_key is None:
        tasks = [(spec, name) for name in spec.strategies]
        return parallel_map(run_task, tasks, jobs=spec.jobs)
    points = spec.params.get(kind.sweep_key)
    if points is None:
        points = kind.sweep_default
    if points is None:
        raise ValueError(
            f"kind {spec.kind!r} requires params[{kind.sweep_key!r}]: "
            "the points to run every strategy at"
        )
    points = tuple(points)
    tasks = [
        (spec, name, point) for point in points for name in spec.strategies
    ]
    flat = parallel_map(run_task, tasks, jobs=spec.jobs)
    width = len(spec.strategies)
    return {
        point: flat[i * width:(i + 1) * width]
        for i, point in enumerate(points)
    }


def _is_set(spec: ExperimentSpec, name: str) -> bool:
    """Whether an optional spec field was moved off its off-value."""
    value = getattr(spec, name)
    return value is not None and value is not False


def preset_spec(name: str, **overrides) -> ExperimentSpec:
    """The named figure preset, optionally with spec fields overridden."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
    return factory().with_overrides(**overrides)


#: Valid ``params`` keys per experiment kind: the keyword-only
#: parameters of the kind's worker, which is also what reads them.
#: ``run_experiment`` rejects anything else by name, so typos fail
#: loudly instead of silently falling through to defaults.
VALID_PARAMS: dict[str, frozenset[str]] = {
    name: kind.valid_params for name, kind in KINDS.items()
}


def _reject_unknown(what: str, given: set[str], known: frozenset[str]) -> None:
    unknown = given - known
    if not unknown:
        return
    valid = sorted(known)
    parts = [f"unknown {what}: {sorted(unknown)}"]
    for name in sorted(unknown):
        close = get_close_matches(name, valid, n=1)
        if close:
            parts.append(f"(did you mean {close[0]!r} instead of {name!r}?)")
    parts.append(f"valid keys: {valid}")
    raise TypeError("; ".join(parts))


# ----------------------------------------------------------------------
# Figure presets (what `python -m repro.obs record --preset ...` uses)
# ----------------------------------------------------------------------

_ONLINE = ("calvin", "gstore", "tpart", "leap", "hermes")

PRESETS: dict[str, Callable[[], ExperimentSpec]] = {
    # Look-back motivation: systems that plan from history.
    "fig02": lambda: ExperimentSpec(
        kind="google", strategies=("calvin", "clay", "leap")),
    # Hermes vs. look-back planners (Schism trained on two periods).
    "fig06a": lambda: ExperimentSpec(
        kind="google",
        strategies=("calvin", "clay", "schism1", "schism2", "hermes"),
        params={"schism_periods": {
            "schism1": (0.55, 0.95),
            "schism2": (0.05, 0.45),
        }},
    ),
    # Hermes vs. on-line approaches.
    "fig06b": lambda: ExperimentSpec(kind="google", strategies=_ONLINE),
    # Latency breakdown companion run.
    "fig07": lambda: ExperimentSpec(
        kind="google",
        strategies=("calvin", "clay", "gstore", "tpart", "leap", "hermes"),
        duration_s=4.0,
    ),
    # TPC-C with a 90 % hot spot on node 0's warehouses.
    "fig11": lambda: ExperimentSpec(
        kind="tpcc",
        strategies=("calvin", "clay", "tpart", "hermes"),
        params={"hot_fraction": 0.9},
    ),
    # Multi-tenant rotating hot spot.
    "fig12": lambda: ExperimentSpec(
        kind="multitenant",
        strategies=("calvin", "tpart", "leap", "clay", "hermes"),
    ),
    # Multi-tenant rotating hot spot at million-key scale: 2M keys over
    # 50 nodes (the DESIGN §15 scale smoke; see SCALE_PROFILES["2m"]).
    # Two strategies keep the nightly job's wall-clock bounded while
    # still exercising prescient vs baseline.
    "fig12_scale": lambda: ExperimentSpec(
        kind="multitenant",
        strategies=("calvin", "hermes"),
        scale="2m",
    ),
    # Scale-out event (3 → 4 nodes).
    "fig14": lambda: ExperimentSpec(
        kind="scaleout",
        strategies=("squall", "clay+squall", "hermes-nocold-5",
                    "hermes-cold-5"),
    ),
    # Forecast-robustness curve: de-oracled Hermes under injected
    # forecast error, with and without graceful fallback, against the
    # reactive baseline.
    "robustness": lambda: ExperimentSpec(
        kind="forecast_robustness",
        strategies=("clay", "hermes-oracle", "hermes-forecast",
                    "hermes-forecast-nofallback"),
        duration_s=4.0,
        params={"error_levels": (0.0, 0.6, 0.9), "forecaster": "oracle"},
    ),
    # Replication vs. migration: adaptive read replication (and its
    # request-cloning mode) against the prescient and look-back
    # baselines, reporting distributed-txn ratio, p99, and the
    # replication-bytes / migration-bytes trade.
    "replication": lambda: ExperimentSpec(
        kind="replication",
        strategies=("calvin", "clay", "schism1", "hermes",
                    "hermes-replica", "hermes-clone"),
        duration_s=4.0,
        # Read-mostly mix: the regime where read replication (vs. write
        # migration) is the right tool; all six rows share it so the
        # byte-for-byte trade-off is apples to apples.
        params={
            "schism_periods": {"schism1": (0.05, 0.45)},
            "ycsb_overrides": {"rw_ratio": 0.2},
            "replication": {"provision_interval": 2},
        },
    ),
    # Tail latency under a straggling replica holder: request cloning
    # (first response wins) against single-holder replica reads.
    "straggler_clone": lambda: ExperimentSpec(
        kind="straggler_clone",
        strategies=("hermes-replica", "hermes-clone"),
        duration_s=2.5,
    ),
    # Online serving: journaled arrival ticks with an elastic add under
    # load, replayed from the journal and verified byte-for-byte before
    # the results are returned (see DESIGN.md §17).
    "serving": lambda: ExperimentSpec(
        kind="serving",
        strategies=("calvin", "hermes"),
        duration_s=1.0,
        params={
            "initial_nodes": 3,
            "resizes": ((500_000.0, "add", 3),),
        },
    ),
}
