"""The reachability gate, on a fixture package: no entry leg runs here.

A fixture module is imported and partly exercised under ``cProfile``;
the recorded stats then stand in for a full ``reach`` run.
"""

import cProfile
import importlib.util
import sys
import textwrap
import time

import pytest

from repro.sanitize import reach
from tests.test_doc_references import _PATH, _path_problem

FIXTURE = '''\
from abc import ABC, abstractmethod


def _twice(fn):
    return fn


def reached():
    return decorated() + _closure_owner()


def unreached():
    return 0


@_twice
@_twice
def decorated():
    return 1


def _closure_owner():
    def inner():
        return 2

    return inner()


class Shape(ABC):
    @abstractmethod
    def area(self):
        """Declared, never entered."""


class Thing:
    def __repr__(self):
        return "Thing"

    def method(self):
        return reached()
'''


def _record(package, profiles_dir, leg="fixture"):
    """Import the fixture and call its entry points under cProfile."""
    spec = importlib.util.spec_from_file_location(
        "reach_fixture", package / "mod.py"
    )
    module = importlib.util.module_from_spec(spec)
    profile = cProfile.Profile()
    profile.enable()
    try:
        spec.loader.exec_module(module)
        module.Thing().method()
    finally:
        profile.disable()
        sys.modules.pop("reach_fixture", None)
    out = profiles_dir / leg
    out.mkdir(parents=True)
    profile.dump_stats(str(out / "run.pstats"))


@pytest.fixture
def recorded(tmp_path):
    """``(package, profiles_dir, allowlist)`` with one recorded leg."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(FIXTURE)
    profiles = tmp_path / "profiles"
    _record(package, profiles)
    allowlist = tmp_path / "unreached.txt"
    allowlist.write_text("")
    return package, profiles, allowlist


def _verdict(package, profiles, allowlist, groups=("entry",)):
    legs = [reach.Leg(name, "python", group=group)
            for name, group in zip(("fixture", "other"), groups)]
    return reach.analyze(str(profiles), legs, str(package), str(allowlist))


class TestMatching:
    def test_exact_unreached_set(self, recorded):
        verdict = _verdict(*recorded)
        assert [d.key for d in verdict.unreached] == ["mod.py::unreached"]
        # Thing.__repr__ and Shape.area are never entered, and exempt.
        assert verdict.exempt == 2
        assert not verdict.ok

    def test_decorated_def_spans_its_decorators(self, recorded):
        package, _, _ = recorded
        decorated = next(d for d in reach.find_defs(str(package))
                         if d.qualname == "decorated")
        assert decorated.line - decorated.first == 2
        # The profile's line for it is either end of the span, by version.
        for line in (decorated.first, decorated.line):
            hits = {("mod.py", "decorated", line)}
            assert reach.reached_keys([decorated], hits) == {decorated.key}
        assert reach.reached_keys(
            [decorated], {("mod.py", "decorated", decorated.line + 1)}
        ) == set()

    def test_nested_closures_are_qualified(self, recorded):
        package, _, _ = recorded
        keys = {d.key for d in reach.find_defs(str(package))}
        assert "mod.py::_closure_owner.inner" in keys
        assert "mod.py::Thing.method" in keys


class TestGate:
    def test_allowlisting_the_unreached_function_passes(self, recorded):
        package, profiles, allowlist = recorded
        allowlist.write_text(
            "mod.py::unreached  safety  the fixture's error path\n"
        )
        verdict = _verdict(package, profiles, allowlist)
        assert verdict.ok, verdict.describe()
        assert verdict.listed_but_reached == []

    def test_a_newly_unreached_function_fails_by_name(self, recorded):
        package, profiles, allowlist = recorded
        allowlist.write_text(
            "mod.py::unreached  safety  the fixture's error path\n"
        )
        source = package / "mod.py"
        source.write_text(source.read_text() + textwrap.dedent('''

            def added_but_never_called():
                return 3
        '''))
        verdict = _verdict(package, profiles, allowlist)
        assert not verdict.ok
        assert [d.key for d in verdict.unreached] == [
            "mod.py::added_but_never_called"
        ]
        assert "mod.py::added_but_never_called" in verdict.describe()

    def test_entry_naming_a_missing_def_fails(self, recorded):
        package, profiles, allowlist = recorded
        allowlist.write_text(
            "mod.py::unreached  safety  the fixture's error path\n"
            "mod.py::gone  safety  deleted long ago\n"
        )
        verdict = _verdict(package, profiles, allowlist)
        assert not verdict.ok
        assert verdict.problems == [
            "allowlist line 2: mod.py::gone names no def"
        ]

    def test_entry_with_an_unknown_tag_fails(self, recorded):
        package, profiles, allowlist = recorded
        allowlist.write_text("mod.py::unreached  later  might need it\n")
        verdict = _verdict(package, profiles, allowlist)
        assert not verdict.ok
        assert "unknown tag 'later'" in verdict.problems[0]

    def test_a_reached_entry_is_reported_not_failed(self, recorded):
        package, profiles, allowlist = recorded
        allowlist.write_text(
            "mod.py::unreached  safety  the fixture's error path\n"
            "mod.py::reached  wallclock  may flap\n"
        )
        verdict = _verdict(package, profiles, allowlist)
        assert verdict.ok
        assert [e.key for e in verdict.listed_but_reached] == [
            "mod.py::reached"
        ]

    def test_reach_only_outside_entry_legs_gets_its_own_section(
        self, recorded
    ):
        package, profiles, allowlist = recorded
        (profiles / "fixture").rename(profiles / "other")
        (profiles / "fixture").mkdir()
        allowlist.write_text(
            "mod.py::unreached  safety  the fixture's error path\n"
        )
        verdict = _verdict(package, profiles, allowlist,
                           groups=("entry", "examples"))
        assert verdict.ok
        assert "mod.py::reached" in {
            d.key for d in verdict.only_outside_entry
        }
        assert "reached only by examples or benchmarks" in verdict.describe()


def test_committed_allowlist_names_existing_defs():
    started = time.perf_counter()
    with open(reach.ALLOWLIST, encoding="utf-8") as handle:
        entries, problems = reach.parse_allowlist(handle.read())
    keys = {d.key for d in reach.find_defs()}
    assert problems == []
    assert [e.key for e in entries if e.key not in keys] == []
    assert time.perf_counter() - started < 1.0


def test_committed_allowlist_names_tests_that_exist():
    # The documents' resolver: a deleted test file or class leaves the
    # reason dangling, and that fails here rather than in the reach job.
    with open(reach.ALLOWLIST, encoding="utf-8") as handle:
        entries, _ = reach.parse_allowlist(handle.read())
    missing = []
    for entry in entries:
        cited = _PATH.findall(entry.reason)
        if entry.tag == "observer" and not any(
            reference.startswith("tests/") for reference in cited
        ):
            missing.append(f"{entry.key}: an observer names its test")
        for reference in cited:
            problem = _path_problem(reference)
            if problem is not None:
                missing.append(f"{entry.key}: `{reference}`: {problem}")
    assert missing == []


def test_every_leg_has_a_known_group():
    assert {leg.group for leg in reach.LEGS} == {
        "entry", "examples", "benchmarks"
    }
    assert len({leg.name for leg in reach.LEGS}) == len(reach.LEGS)
