"""The configuration surface: every knob has a caller that sets it.

Every field of every ``*Config`` / ``*Spec`` / ``*Policy`` dataclass
under ``src/repro`` is listed in :data:`SURFACE` with the one place
outside the tests and examples that sets it (DESIGN §2, "Every knob has a
setter"):

* ``"PATH"`` — a file under ``src/``, ``benchmarks/`` or ``perfbench/``,
  other than the one defining the class, that passes the field;
* ``"PATH --flag"`` — a command-line flag of that ``__main__`` module;
* ``"required"`` — a field without a default, which every constructor
  call must pass, so it is an input rather than a knob.

A pass-through is not a setter: a file whose every ``Class(field=...)``
keyword reads key ``"x"`` out of a dict — ``params.get("x")``, or a
round trip such as ``payload.get("x")`` / ``payload["x"]`` rebuilding
an object from its JSON form — only forwards whatever sets ``x``, so
the entry must name the setter of ``x`` instead.

The experiment kinds' ``spec.params`` keys (``KINDS[k].valid_params``)
and the keys ``params["replication"]`` accepts (``REPLICATION_KEYS``)
are knobs too: :data:`PARAMS` names, for each, a file outside the kind
workers' own module that passes it as a dict key (presets in
``src/repro/api.py`` count).

A field or key added without an entry, or an entry left behind by a
deleted one, fails by name.  A value no caller varies is a module
constant beside the code that reads it, not a knob.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.bench.figures import KINDS, REPLICATION_KEYS

ROOT = Path(__file__).resolve().parents[1]
SUFFIXES = ("Config", "Spec", "Policy")
SETTER_DIRS = ("src/", "benchmarks/", "perfbench/")
#: The kind workers, which read every :data:`PARAMS` key.
WORKERS = "src/repro/bench/figures.py"

SURFACE = {
    # repro.api
    "ExperimentSpec.kind": "required",
    "ExperimentSpec.strategies": "src/repro/bench/__main__.py",
    "ExperimentSpec.seed": "perfbench/worker.py",
    "ExperimentSpec.duration_s": "src/repro/bench/__main__.py --duration",
    "ExperimentSpec.jobs": "src/repro/bench/__main__.py --jobs",
    "ExperimentSpec.keep_cluster": "perfbench/worker.py",
    "ExperimentSpec.trace": "src/repro/obs/__main__.py",
    "ExperimentSpec.scale": "src/repro/sanitize/reach.py",
    "ExperimentSpec.params": "src/repro/bench/__main__.py",
    # repro.bench.specs
    "StrategySpec.name": "required",
    "StrategySpec.make_router": "required",
    "StrategySpec.make_overlay": "src/repro/bench/figures.py",
    "StrategySpec.attach": "src/repro/bench/figures.py",
    # repro.common.config
    "RetryPolicy.timeout_us": "src/repro/engine/executor.py",
    "RetryPolicy.max_attempts": "src/repro/engine/executor.py",
    "RoutingConfig.alpha": "src/repro/baselines/tpart.py",
    "RoutingConfig.reorder": "src/repro/bench/specs.py",
    "RoutingConfig.balance": "src/repro/bench/figures.py",
    "FusionConfig.capacity": "src/repro/bench/figures.py",
    "FusionConfig.eviction": "benchmarks/test_abl_fusion_table.py",
    "EngineConfig.workers_per_node": "src/repro/bench/presets.py",
    "EngineConfig.epoch_us": "src/repro/bench/presets.py",
    "EngineConfig.max_batch_size": "src/repro/bench/presets.py",
    "EngineConfig.migration_chunk_records": "src/repro/serve/core.py",
    "EngineConfig.migration_chunk_gap_us": "src/repro/serve/core.py",
    "ClusterConfig.num_nodes": "src/repro/bench/presets.py",
    "ClusterConfig.engine": "src/repro/bench/presets.py",
    "ClusterConfig.costs": "src/repro/bench/presets.py",
    # repro.engine.ollp
    "DependentTxnSpec.dependency_keys": "required",
    "DependentTxnSpec.compute": "required",
    # repro.faults.chaos
    "ChaosConfig.num_nodes": "benchmarks/test_chaos_determinism.py",
    "ChaosConfig.num_keys": "benchmarks/test_chaos_determinism.py",
    "ChaosConfig.num_txns": "benchmarks/test_chaos_determinism.py",
    # repro.replication.router
    "ReplicationConfig.key_lo": "required",
    "ReplicationConfig.key_hi": "required",
    "ReplicationConfig.range_records": "src/repro/bench/figures.py",
    "ReplicationConfig.provision_interval": "src/repro/bench/figures.py",
    "ReplicationConfig.clone": "src/repro/bench/figures.py",
    "ReplicationConfig.fanout": "src/repro/bench/figures.py",
    # repro.serve
    "AdmissionConfig.max_per_tick": "src/repro/serve/driver.py",
    "AdmissionConfig.max_inflight": "src/repro/serve/driver.py",
    "ServeConfig.num_keys": "src/repro/serve/__main__.py --keys",
    "ServeConfig.num_nodes": "src/repro/serve/__main__.py --nodes",
    "ServeConfig.initial_nodes": "src/repro/serve/__main__.py --initial-nodes",
    "ServeConfig.strategy": "src/repro/serve/__main__.py --strategy",
    "ServeConfig.epoch_us": "src/repro/serve/__main__.py --epoch-us",
    "ServeConfig.digest": "perfbench/worker.py",
    "LoadgenConfig.duration_s": "src/repro/serve/__main__.py --duration",
    "LoadgenConfig.rate_per_s": "src/repro/serve/__main__.py --rate",
    "LoadgenConfig.connections": "src/repro/serve/__main__.py --connections",
    "LoadgenConfig.rw_ratio": "src/repro/serve/__main__.py --rw-ratio",
    "LoadgenConfig.seed": "src/repro/serve/__main__.py --seed",
    "LoadgenConfig.flash_crowd_at_s":
        "src/repro/serve/__main__.py --flash-crowd-at",
    "LoadgenConfig.flash_crowd_s":
        "src/repro/serve/__main__.py --flash-crowd-s",
    "LoadgenConfig.flash_crowd_multiplier":
        "src/repro/serve/__main__.py --flash-crowd-mult",
    "LoadgenConfig.resizes": "src/repro/serve/__main__.py --resize",
    "LoadgenConfig.journal_path": "src/repro/serve/__main__.py --journal",
    # repro.workloads
    "GoogleTraceConfig.num_machines": "src/repro/bench/presets.py",
    "GoogleTraceConfig.duration_s": "src/repro/bench/presets.py",
    "GoogleTraceConfig.tick_s": "src/repro/bench/presets.py",
    "GoogleTraceConfig.spikes_per_machine": "src/repro/bench/presets.py",
    "GoogleTraceConfig.shifts_per_machine": "src/repro/bench/presets.py",
    "HotRangeConfig.warm_until_us": "src/repro/bench/figures.py",
    "MultiTenantConfig.num_nodes": "src/repro/bench/figures.py",
    "MultiTenantConfig.tenants_per_node": "perfbench/worker.py",
    "MultiTenantConfig.records_per_tenant": "perfbench/worker.py",
    "MultiTenantConfig.hot_share": "src/repro/bench/figures.py",
    "MultiTenantConfig.rotation_interval_us": "perfbench/worker.py",
    "MultiTenantConfig.hot_mode": "src/repro/bench/figures.py",
    "MultiTenantConfig.fixed_hot_tenant": "src/repro/bench/figures.py",
    "TPCCConfig.num_warehouses": "src/repro/bench/figures.py",
    "TPCCConfig.num_nodes": "src/repro/bench/figures.py",
    "TPCCConfig.hot_fraction": "src/repro/bench/__main__.py --hot",
    "YCSBConfig.num_keys": "src/repro/bench/figures.py",
    "YCSBConfig.num_partitions": "src/repro/bench/figures.py",
    "YCSBConfig.txn_len_mean": "benchmarks/test_fig09_txn_length.py",
    "YCSBConfig.txn_len_std": "benchmarks/test_fig09_txn_length.py",
    "YCSBConfig.rw_ratio": "src/repro/api.py",
    "YCSBConfig.zipf_theta": "src/repro/bench/figures.py",
    "YCSBConfig.global_cycle_us": "src/repro/bench/figures.py",
}

PARAMS = {
    # KINDS[kind].valid_params
    "google.rate_scale": "src/repro/bench/__main__.py --rate-scale",
    "google.schism_periods": "src/repro/api.py",
    "google.ycsb_overrides": "benchmarks/test_fig09_txn_length.py",
    "tpcc.hot_fraction": "src/repro/bench/__main__.py --hot",
    "tpcc_sweep.hot_fractions": "benchmarks/test_fig11_tpcc.py",
    "multitenant.config": "perfbench/worker.py",
    "multitenant.partitioner_factory":
        "benchmarks/test_fig13_initial_partitioning.py",
    "forecast_robustness.error_levels": "src/repro/api.py",
    "forecast_robustness.forecaster": "src/repro/api.py",
    "replication.replication": "src/repro/api.py",
    "replication.schism_periods": "src/repro/api.py",
    "replication.ycsb_overrides": "src/repro/api.py",
    "serving.initial_nodes": "src/repro/api.py",
    "serving.resizes": "src/repro/api.py",
    # REPLICATION_KEYS: the replication kind's params["replication"]
    "replication[provision_interval]": "src/repro/api.py",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if "dataclass" in (
            getattr(decorator, "id", None), getattr(decorator, "attr", None)
        ):
            return True
    return False


def _surface() -> dict[str, tuple[str, bool]]:
    """``"Class.field" -> (defining file, has a default)`` under src/repro."""
    fields = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(SUFFIXES)
                and _is_dataclass(node)
            ):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields[f"{node.name}.{stmt.target.id}"] = (
                        path.relative_to(ROOT).as_posix(),
                        stmt.value is not None,
                    )
    return fields


def _tree(path: str) -> ast.AST:
    return ast.parse((ROOT / path).read_text(encoding="utf-8"))


def _get_key(node: ast.AST) -> str | None:
    """``"x"`` when ``node`` reads key ``"x"`` out of a named dict:
    ``params.get("x", ...)``, ``payload.get("x")`` or ``payload["x"]``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _params() -> set[str]:
    names = {
        f"{kind}.{param}"
        for kind, spec in KINDS.items()
        for param in spec.valid_params
    }
    return names | {f"replication[{key}]" for key in REPLICATION_KEYS}


def _key(param: str) -> str:
    """The params key a :data:`PARAMS` name stands for."""
    return param.partition("[")[2].rstrip("]") or param.split(".")[1]


def _class_keywords(path: str, cls: str, field: str) -> list[ast.expr]:
    """The values ``path`` passes as ``field=`` to ``cls(...)``."""
    values = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call) and cls in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            values += [kw.value for kw in node.keywords if kw.arg == field]
    return values


def _dict_keys(path: str) -> set[str]:
    return {
        key.value
        for node in ast.walk(_tree(path)) if isinstance(node, ast.Dict)
        for key in node.keys if isinstance(key, ast.Constant)
    }


FIELDS = _surface()
PARAM_NAMES = _params()


def test_every_field_is_in_the_table():
    assert sorted(set(FIELDS) - set(SURFACE)) == [], (
        "new fields need a setter outside tests/ and examples/, "
        "or should be constants"
    )
    assert sorted(set(SURFACE) - set(FIELDS)) == [], "stale table entries"


def test_every_param_is_in_the_table():
    assert sorted(PARAM_NAMES - set(PARAMS)) == [], (
        "new params need a setter outside tests/ and examples/, "
        "or should be constants"
    )
    assert sorted(set(PARAMS) - PARAM_NAMES) == [], "stale table entries"


def _check_setter(setter: str, defined_in: str, word: str) -> str:
    """Assert ``setter`` is a file (or flag) that can set ``word``."""
    path, _, flag = setter.partition(" ")
    assert path.startswith(SETTER_DIRS), setter
    assert path != defined_in, f"{word}: the defining file is no setter"
    text = (ROOT / path).read_text(encoding="utf-8")
    assert re.search(rf"\b{word}\b", text), f"{path} never mentions {word}"
    if flag:
        assert path.endswith("__main__.py"), setter
        assert f'"{flag}"' in text, f"{path} has no {flag} flag"
    return path


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_setter_sets_the_field(name):
    defined_in, has_default = FIELDS[name]
    setter = SURFACE[name]
    cls, field = name.split(".")
    if setter == "required":
        assert not has_default, f"{name} has a default; name its setter"
        return
    path = _check_setter(setter, defined_in, field)
    values = _class_keywords(path, cls, field)
    forwarded = sorted({_get_key(value) for value in values} - {None})
    assert not values or any(
        _get_key(value) is None for value in values
    ), (
        f"{name}: {path} only forwards dict key(s) {forwarded}; "
        "name that key's setter instead"
    )


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_setter_sets_the_param(name):
    key = _key(name)
    path = _check_setter(PARAMS[name], WORKERS, key)
    assert key in _dict_keys(path), f"{path} never passes {key!r}"


@pytest.mark.parametrize(
    "source, key",
    [
        ('params.get("hot_fraction", 0.0)', "hot_fraction"),
        ('payload.get("window_us")', "window_us"),
        ('payload["seed"]', "seed"),
        ("1_000.0", None),
        ("args.window_us", None),
    ],
)
def test_dict_reads_are_pass_throughs(source, key):
    # A spec rebuilt from its JSON payload sets nothing: the payload
    # only carries what the original spec's setter put there.
    assert _get_key(ast.parse(source, mode="eval").body) == key
