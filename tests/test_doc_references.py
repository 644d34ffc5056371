"""The documents point at things that exist.

Every backticked repository path (``src/…``, ``tests/…``,
``benchmarks/…``, ``examples/…``, optionally with ``::Name`` parts) and
every backticked ``repro.x.y`` name in the user-facing documents must
resolve: the path exists (a glob matches at least one file) and each
``::`` part names a class or function defined in it; the dotted name
imports as a module or resolves as an attribute of one.  Every
backticked bare identifier (``name`` or ``name()``) must occur as a word
somewhere in the code trees, unless :data:`HISTORICAL` lists it.  A
rename that forgets the docs fails here instead of in a reader's shell.

Nothing cites a ROADMAP open item by number: the items are renumbered at
every re-anchor, so such a citation silently comes to point at the wrong
item.  Cite the DESIGN section instead.
"""

from __future__ import annotations

import glob
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
)

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples)/[\w./*-]*(?:::\w+)*)"
)
_NAME = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)")
_IDENT = re.compile(r"([A-Za-z_]\w*)(?:\(\))?")
_ITEM_CITATION = re.compile(r"ROADMAP\s+item")

#: Trees scanned for item citations, beside the documents.
CITING_TREES = ("src", "tests", "benchmarks", ".github")
#: Trees a backticked bare identifier must occur in.
CODE_TREES = (
    "src", "tests", "benchmarks", "perfbench", "examples", ".github",
)
#: Backticked identifiers of code that is gone, kept on purpose where
#: DESIGN tells what replaced it.
HISTORICAL = frozenset({"dispatch_mode", "ScheduleStream", "run_sharded"})


def _spans(document: str) -> list[tuple[int, str, bool]]:
    """``(line, body, fenced)`` for every code span of a document."""
    text = (ROOT / document).read_text(encoding="utf-8")
    spans = [(m.start(), m.group(1), True) for m in _FENCE.finditer(text)]
    # Blank the fenced blocks out (keeping offsets) so their backticks
    # cannot pair with inline ones.
    inline = _FENCE.sub(lambda m: " " * len(m.group(0)), text)
    for m in _SPAN.finditer(inline):
        # A span wrapped across lines: a break after "/" splits a path,
        # any other break is a space.
        body = re.sub(r"\s+", " ", re.sub(r"/\s+", "/", m.group(1)))
        spans.append((m.start(), body, False))
    return [
        (text.count("\n", 0, start) + 1, body, fenced)
        for start, body, fenced in spans
    ]


def _references() -> list[tuple[str, int, str]]:
    """``(document, line, reference)`` for every checked reference."""
    found = []
    for document in DOCUMENTS:
        for line, body, _fenced in _spans(document):
            for pattern in (_PATH, _NAME):
                for match in pattern.finditer(body):
                    found.append((document, line, match.group(1)))
    return found


def _path_problem(reference: str) -> str | None:
    path, *parts = reference.split("::")
    matches = glob.glob(str(ROOT / path))
    if not matches:
        return "no such path"
    if parts:
        source = Path(matches[0]).read_text(encoding="utf-8")
        for part in parts:
            if not re.search(rf"^\s*(?:class|def) {part}\b", source, re.M):
                return f"{path} defines no {part}"
    return None


def _name_problem(reference: str) -> str | None:
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return f"{'.'.join(parts[:cut])} has no {attr}"
            target = getattr(target, attr)
        return None
    return "not importable"


def _identifiers() -> list[tuple[str, int, str]]:
    """``(document, line, name)`` for every inline bare identifier."""
    return [
        (document, line, match.group(1))
        for document in DOCUMENTS
        for line, body, fenced in _spans(document)
        if not fenced and (match := _IDENT.fullmatch(body))
    ]


def _code_words() -> set[str]:
    """Every word of the code trees, this file's allowlist and run
    outputs (``__pycache__``, ``perfbench/_out``) aside."""
    words: set[str] = set()
    for tree in CODE_TREES:
        for path in (ROOT / tree).rglob("*"):
            if (
                path.is_file()
                and not {"__pycache__", "_out"} & set(path.parts)
                and path != Path(__file__).resolve()
            ):
                text = path.read_text(encoding="utf-8", errors="replace")
                words.update(re.findall(r"\w+", text))
    return words


REFERENCES = _references()


def test_scan_finds_references():
    # Guards the scanner itself: a regex that silently matched nothing
    # would make the test below vacuous.
    assert len(REFERENCES) >= 50
    assert {document for document, _line, _ref in REFERENCES} == set(
        DOCUMENTS
    )


def test_every_reference_resolves():
    stale = []
    for document, line, reference in REFERENCES:
        check = _path_problem if "/" in reference else _name_problem
        problem = check(reference)
        if problem is not None:
            stale.append(f"{document}:{line} `{reference}`: {problem}")
    assert stale == [], "\n".join(stale)


def test_every_identifier_occurs_in_the_code():
    words = _code_words()
    missing = [
        f"{document}:{line} `{name}`"
        for document, line, name in _identifiers()
        if name not in words and name not in HISTORICAL
    ]
    assert missing == [], "\n".join(missing)
    # The allowlist only shrinks: a historical name back in the code
    # is no longer history.
    assert sorted(HISTORICAL & words) == []


def test_no_roadmap_item_citations():
    paths = [ROOT / document for document in DOCUMENTS]
    for tree in CITING_TREES:
        paths += [
            path for path in sorted((ROOT / tree).rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
        ]
    hits = []
    for path in paths:
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in _ITEM_CITATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            hits.append(f"{path.relative_to(ROOT)}:{line}")
    assert hits == [], "cite the DESIGN section instead:\n" + "\n".join(hits)


@pytest.mark.parametrize(
    "reference, resolves",
    [
        ("tests/test_doc_references.py", True),
        ("tests/test_doc_references.py::test_every_reference_resolves", True),
        ("tests/test_doc_references.py::NoSuchTest", False),
        ("benchmarks/test_chaos_*.py", True),
        ("tests/no_such_file.py", False),
    ],
)
def test_path_check_has_teeth(reference, resolves):
    assert (_path_problem(reference) is None) is resolves


@pytest.mark.parametrize(
    "reference, resolves",
    [
        ("repro.faults.chaos", True),
        ("repro.faults.chaos.verify_trial", True),
        ("repro.faults.FaultPlan.random", True),
        ("repro.faults.chaos.no_such_name", False),
        ("repro.no_such_module", False),
    ],
)
def test_name_check_has_teeth(reference, resolves):
    assert (_name_problem(reference) is None) is resolves
