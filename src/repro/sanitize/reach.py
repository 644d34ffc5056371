"""Reachability gate: which functions under ``src/repro`` does no entry
point ever enter?

The dynamic twin of :mod:`repro.sanitize.lint`.  ``python -m
repro.sanitize reach`` runs every leg in :data:`LEGS` (the presets, the
``python -m repro.*`` commands the workflows run, ``perfbench``, the
benchmarks and the examples) with a throwaway ``sitecustomize``
that starts :mod:`cProfile` in *every* interpreter a leg starts and dumps
its stats at exit, so hash-seed children, perfbench rounds and serve
subprocesses count too.  It then lists every ``def`` under ``src/repro``
with :mod:`ast` and fails on any that no leg entered and that the
allowlist (``unreached.txt``, one ``path::Qual.name  tag  reason`` line
per function) does not name.  Dunders are exempt, and so are abstract
declarations (``@abstractmethod`` methods and ``Protocol`` members):
they declare an interface and hold no code to enter.

A profile names a function ``(co_filename, co_firstlineno, co_name)``.
For a decorated function ``co_firstlineno`` is the first decorator's line
on Python 3.11 and the ``def`` line on later versions, so a ``def``
matches any line from its first decorator to the ``def`` itself.

Legs run one at a time: a ``multiprocessing`` worker leaves through
``os._exit`` and never dumps its profile.  Two legs are reported but
not gated: the benchmarks (a few of the paper's claims do not hold at
the leg's reduced scale) and the gate judging the legs before it (its
verdict cannot count its own profile).
"""

from __future__ import annotations

import ast
import os
import pstats
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["ALLOWLIST", "LEGS", "TAGS", "Def", "Leg", "Verdict", "analyze",
           "find_defs", "load_reached", "parse_allowlist", "run_legs"]

#: The package the gate enumerates, and the checkout it runs legs in.
PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PACKAGE))
ALLOWLIST = os.path.join(PACKAGE, "sanitize", "unreached.txt")

#: The only reasons a function may stay unreached.
TAGS = {
    "safety": "an error, divergence or fault path a healthy run never enters",
    "observer": "a remaining test's window onto state a leg does reach "
                "(the reason names the test)",
    "scheduled": "reached only by a named nightly or weekly job",
    "wallclock": "whether a leg reaches it depends on serve timing",
}

#: Environment variable the hook reads: where to dump this leg's profiles.
_OUT_ENV = "REPRO_REACH_OUT"

_HOOK = f"""\
import atexit, cProfile, os, tempfile

_profile = cProfile.Profile()


def _dump():
    _profile.disable()
    fd, path = tempfile.mkstemp(suffix=".pstats", dir=os.environ["{_OUT_ENV}"])
    os.close(fd)
    _profile.dump_stats(path)


atexit.register(_dump)
_profile.enable()
"""


@dataclass(frozen=True, slots=True)
class Leg:
    """One entry-point command, run from the checkout root.

    ``command`` splits like a shell line: ``python`` is this interpreter,
    ``{tmp}`` a directory the legs share and ``{out}`` the directory the
    profiles go to.  ``scale`` sets ``REPRO_BENCH_SCALE``.
    """

    name: str
    command: str
    scale: str | None = None
    group: str = "entry"
    gated: bool = True


def _python(code: str) -> str:
    return "python -c " + shlex.quote(code)


_RUN = "from repro.api import *\n"

#: The legs, in run order; they mirror what the workflows run.
LEGS: tuple[Leg, ...] = (
    Leg("presets", _python(
        _RUN + "for name in sorted(PRESETS):\n"
        "    run_experiment(preset_spec(name))\n"
        # nightly forecast-noise-axis: robustness on learned forecasters
        "for forecaster in ('ewma', 'markov', 'seasonal'):\n"
        "    run_experiment(preset_spec('robustness').with_overrides(params="
        "{'error_levels': (0.0, 0.9), 'forecaster': forecaster}))\n"
    ), "0.01"),
    # ci.yml's sanitize job replays these at 0.05, where the mispredict
    # fallback engages and replicas serve.
    Leg("presets-ci-scale", _python(
        _RUN + "run_experiment(preset_spec('robustness'))\n"
        "run_experiment(preset_spec('replication'))\n"
    ), "0.05"),
    # Clay's monitor first plans a clump move at about 0.3 of bench
    # scale; no workflow runs a preset that long.
    Leg("clay-planning", _python(
        _RUN + "run_experiment(preset_spec('fig12').with_overrides("
        "strategies=('clay',)))\n"
    ), "0.3"),
    # EXPERIMENTS' "any scalable kind" recipe, cut short: a 2M-key Google
    # trace run, whose keyspace-wide Zipf draws from the lazy CDF.
    Leg("scale-google", _python(
        _RUN + "run_experiment(ExperimentSpec(kind='google', strategies="
        "('hermes',), scale='2m', duration_s=0.2))\n"
    )),
    Leg("bench-list", "python -m repro.bench list"),
    # The bench CLI's Figure 7 table (``--latency``), cut short: at 0.1
    # both strategies commit within the 0.3 s run.
    Leg("bench-latency", "python -m repro.bench google calvin hermes "
        "--duration 0.3 --latency", "0.1"),
    # The audit needs a drained cluster; below 0.3 the overloaded fig11
    # run does not drain within the audit's horizon.
    Leg("obs-record", "python -m repro.obs record --preset fig11 --out "
        "{tmp}/fig11.jsonl --chrome {tmp}/fig11.json --audit-placement",
        "0.3"),
    Leg("obs-report",
        "python -m repro.obs report {tmp}/fig11.jsonl --audit-placement",
        "0.3"),
    # A traced migration: at 0.1 hermes-cold-5's session ends in the run.
    Leg("obs-record-migration", "python -m repro.obs record --preset fig14 "
        "--out {tmp}/fig14.jsonl", "0.1"),
    Leg("sanitize-lint", "python -m repro.sanitize lint src/repro"),
    Leg("sanitize-rules", "python -m repro.sanitize rules"),
    Leg("sanitize-replay",
        "python -m repro.sanitize replay --preset fig12 --hashseeds 1 2",
        "0.05"),
    Leg("migration-digest", _python(
        "from repro.faults.chaos import smoke_migration_digest\n"
        "print(smoke_migration_digest())\n"
    )),
    Leg("serve-loadgen", "python -m repro.serve loadgen --duration 6 "
        "--rate 500 --connections 2 --keys 2000 --initial-nodes 3 "
        "--resize 1.5:add:3 --resize 4.0:remove:3 --flash-crowd-at 2.5 "
        "--journal {tmp}/serve.jsonl --json"),
    Leg("serve-replay", "python -m repro.serve replay {tmp}/serve.jsonl"),
    # The human-readable report (the CI job asks for --json).
    Leg("serve-loadgen-text", "python -m repro.serve loadgen --duration 2 "
        "--rate 200 --connections 1 --keys 2000"),
    Leg("perfbench", "python perfbench/run.py --quick"),
    Leg("benchmarks", "python -m pytest benchmarks -q -p no:cacheprovider",
        "0.02", group="benchmarks", gated=False),
    *(
        Leg(f"example-{name}", f"python examples/{name}.py",
            group="examples")
        for name in ("google_trace_study", "ollp_secondary_index",
                     "pingpong_anatomy", "quickstart", "replication_failover",
                     "scaleout_demo", "tpcc_hotspot")
    ),
    Leg("sanitize-reach", "python -m repro.sanitize reach --profiles {out}",
        gated=False),
)


def run_legs(legs: Iterable[Leg],
             out_dir: str) -> tuple[list[str], list[str]]:
    """Run each leg serially under the profiling hook.

    Leg ``L``'s profiles land in ``out_dir/L/`` and its output in
    ``out_dir/L.log``.  Returns one status line per leg and the problems
    that fail the gate: a gated leg that exited non-zero, or any leg that
    left no profile, each with the tail of its output.  With no legs
    this only lays out ``out_dir``.
    """
    hook_dir = os.path.join(out_dir, "_hook")
    shared = os.path.join(out_dir, "_tmp")
    os.makedirs(hook_dir, exist_ok=True)
    os.makedirs(shared, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as handle:
        handle.write(_HOOK)
    lines: list[str] = []
    problems: list[str] = []
    for leg in legs:
        profiles = os.path.join(out_dir, leg.name)
        os.makedirs(profiles, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        env["REPRO_BENCH_JOBS"] = "1"
        env[_OUT_ENV] = profiles
        if leg.scale is not None:
            env["REPRO_BENCH_SCALE"] = leg.scale
        argv = [arg.replace("{tmp}", shared).replace("{out}", out_dir)
                for arg in shlex.split(leg.command)]
        argv[0] = sys.executable if argv[0] == "python" else argv[0]
        log = os.path.join(out_dir, f"{leg.name}.log")
        started = time.perf_counter()  # sanitize: ok(reports leg wall time; never feeds a simulation)
        with open(log, "w", encoding="utf-8") as handle:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=handle,
                                  stderr=subprocess.STDOUT)
        seconds = time.perf_counter() - started  # sanitize: ok(reports leg wall time; never feeds a simulation)
        count = len(_profiles_in(profiles))
        lines.append(f"  {leg.name:<28} exit {done.returncode:>3}"
                     f"{'' if leg.gated else ' (not gated)'}  "
                     f"{seconds:6.1f} s  {count} profile(s)")
        print(lines[-1], flush=True)
        if count and not (done.returncode and leg.gated):
            continue
        with open(log, encoding="utf-8", errors="replace") as handle:
            tail = handle.read().splitlines()[-15:]
        why = f"exited {done.returncode}" if count else "left no profile"
        problems.append("\n".join([f"leg {leg.name} {why}:"]
                                  + [f"    | {line}" for line in tail]))
    return lines, problems


def _profiles_in(directory: str) -> list[str]:
    return [
        os.path.join(directory, name) for name in sorted(os.listdir(directory))
        if name.endswith(".pstats")
    ]


# ----------------------------------------------------------------------
# What exists, what ran, what may stay unreached
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Def:
    """One ``def`` under the package root."""

    path: str
    qualname: str
    first: int
    line: int
    declared: bool = False
    """An abstract method or a ``Protocol`` member: interface only."""

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def exempt(self) -> bool:
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return dunder or self.declared


def find_defs(package: str = PACKAGE) -> list[Def]:
    """Every function and method under ``package``, nested ones included.

    ``path`` is relative to ``package``; ``qualname`` joins enclosing
    classes and functions with dots.
    """
    out: list[Def] = []
    sources = sorted(
        os.path.join(directory, name)
        for directory, _, names in os.walk(package) for name in names
        if name.endswith(".py")
    )
    for source in sources:
        with open(source, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=source)
        relative = os.path.relpath(source, package).replace(os.sep, "/")
        _collect(tree, "", relative, out)
    return out


def _named(node: ast.expr, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _collect(node: ast.AST, prefix: str, path: str, out: list[Def],
             protocol: bool = False) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            declared = protocol or any(
                _named(d, "abstractmethod") for d in child.decorator_list
            )
            out.append(Def(path, qualname, first, child.lineno, declared))
            _collect(child, qualname + ".", path, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}{child.name}.", path, out,
                     any(_named(base, "Protocol") for base in child.bases))
        else:
            _collect(child, prefix, path, out)


def load_reached(profile_paths: Iterable[str],
                 package: str = PACKAGE) -> set[tuple[str, str, int]]:
    """``(path, co_name, co_firstlineno)`` of every function under
    ``package`` that one of the profiles entered."""
    root = os.path.realpath(package) + os.sep
    out = set()
    for profile in profile_paths:
        for filename, line, name in pstats.Stats(profile).stats:
            real = os.path.realpath(filename)
            if real.startswith(root):
                out.add((real[len(root):].replace(os.sep, "/"), name, line))
    return out


def reached_keys(defs: Iterable[Def],
                 hits: set[tuple[str, str, int]]) -> set[str]:
    """Keys of the ``defs`` a profile entered, decorator lines spanned."""
    lines: dict[tuple[str, str], list[int]] = {}
    for path, name, line in sorted(hits):
        lines.setdefault((path, name), []).append(line)
    return {
        d.key for d in defs
        if any(d.first <= line <= d.line
               for line in lines.get((d.path, d.name), ()))
    }


@dataclass(frozen=True, slots=True)
class Entry:
    """One allowlist line."""

    key: str
    tag: str
    reason: str
    line: int


def parse_allowlist(text: str) -> tuple[list[Entry], list[str]]:
    """Entries plus the problems of malformed lines (blank lines and
    ``#`` comments are skipped)."""
    entries: list[Entry] = []
    problems: list[str] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or "::" not in parts[0]:
            problems.append(f"allowlist line {number}: expected "
                            "'path::Qual.name  tag  reason'")
            continue
        key, tag, reason = parts
        if tag not in TAGS:
            problems.append(f"allowlist line {number}: unknown tag {tag!r} "
                            f"(one of {', '.join(TAGS)})")
        elif any(entry.key == key for entry in entries):
            problems.append(f"allowlist line {number}: {key} listed twice")
        else:
            entries.append(Entry(key, tag, reason, number))
    return entries, problems


@dataclass(slots=True)
class Verdict:
    """What the gate found."""

    defs: int
    exempt: int
    listed: list[Entry]
    problems: list[str]
    unreached: list[Def] = field(default_factory=list)
    listed_but_reached: list[Entry] = field(default_factory=list)
    only_outside_entry: list[Def] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unreached and not self.problems

    def describe(self) -> str:
        by_tag = {tag: 0 for tag in TAGS}
        for entry in self.listed:
            by_tag[entry.tag] += 1
        lines = [
            f"{self.defs} functions, {self.exempt} exempt (dunders and "
            f"abstract declarations), {len(self.listed)} allowlisted ("
            + ", ".join(f"{tag} {n}" for tag, n in by_tag.items()) + "), "
            f"{len(self.unreached)} unreached and unlisted",
        ]
        if self.unreached:
            lines.append("\nUNREACHED (no leg entered these; delete them, "
                         "or allowlist one with a tag and a reason):")
            lines.extend(f"  {d.key}  (line {d.line})" for d in self.unreached)
        if self.problems:
            lines.append("\nPROBLEMS:")
            lines.extend(f"  {problem}" for problem in self.problems)
        if self.listed_but_reached:
            lines.append("\nallowlisted but reached this run (not a "
                         "failure; drop the entry unless it can flap):")
            lines.extend(f"  {e.key}  {e.tag}"
                         for e in self.listed_but_reached)
        if self.only_outside_entry:
            lines.append("\nreached only by examples or benchmarks:")
            files: dict[str, list[str]] = {}
            for d in self.only_outside_entry:
                files.setdefault(d.path, []).append(d.qualname)
            lines.extend(f"  {path}: {len(names)} ({', '.join(names)})"
                         for path, names in files.items())
        return "\n".join(lines)


def analyze(profiles_dir: str, legs: Iterable[Leg] = LEGS,
            package: str = PACKAGE, allowlist: str = ALLOWLIST) -> Verdict:
    """Hold every ``def`` in ``package`` to the allowlist, given the
    profiles a :func:`run_legs` call left in ``profiles_dir``.

    An entry naming no ``def`` is a problem; an entry a leg reached is
    only reported, because a ``wallclock`` entry can flap.  Functions
    that only ``examples`` or ``benchmarks`` legs reach get a section of
    their own.
    """
    defs = find_defs(package)
    reached: dict[str, set[str]] = {}
    for leg in legs:
        directory = os.path.join(profiles_dir, leg.name)
        if os.path.isdir(directory):
            hits = load_reached(_profiles_in(directory), package)
            reached.setdefault(leg.group, set()).update(
                reached_keys(defs, hits))
    everywhere = set().union(*reached.values())
    with open(allowlist, encoding="utf-8") as handle:
        entries, problems = parse_allowlist(handle.read())
    verdict = Verdict(len(defs), sum(d.exempt for d in defs), entries,
                      problems)
    keys = {d.key for d in defs}
    for entry in entries:
        if entry.key not in keys:
            verdict.problems.append(
                f"allowlist line {entry.line}: {entry.key} names no def")
        elif entry.key in everywhere:
            verdict.listed_but_reached.append(entry)
    listed = {entry.key for entry in entries}
    for d in defs:
        if d.exempt:
            continue
        if d.key not in everywhere:
            if d.key not in listed:
                verdict.unreached.append(d)
        elif d.key not in reached.get("entry", ()):
            verdict.only_outside_entry.append(d)
    return verdict


def main(keep: str | None = None, profiles: str | None = None,
         report: str | None = None) -> int:
    """The ``reach`` subcommand: run the legs (or judge the ``profiles``
    an earlier ``keep`` run left), print the verdict, return the status."""
    started = time.perf_counter()  # sanitize: ok(reports the gate's wall time; never feeds a simulation)
    legs = () if profiles else LEGS
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out_dir = profiles or keep or scratch
        print(f"reach: {len(legs)} legs under cProfile, profiles in {out_dir}")
        lines, problems = run_legs(legs, out_dir)
        verdict = analyze(out_dir)
        verdict.problems[:0] = problems
    elapsed = time.perf_counter() - started  # sanitize: ok(reports the gate's wall time; never feeds a simulation)
    summary = (f"{verdict.describe()}\n\n"
               f"reach: {'ok' if verdict.ok else 'FAIL'} in {elapsed:.0f} s")
    print(f"\n{summary}")
    if report:
        with open(report, "w", encoding="utf-8") as handle:
            handle.write("\n".join([*lines, "", summary, ""]))
    return 0 if verdict.ok else 1
