"""AST-based nondeterminism lint.

Walks Python source and flags constructs that can make a simulation run
depend on anything other than ``(spec, seed)``: hash-order iteration,
wall clocks, unseeded randomness, ambient entropy, identity-based
ordering, and filesystem enumeration order.  The rules are deliberately
*syntactic and local* — a variable is treated as a set only when the
enclosing scope proves it (literal, ``set()``/``frozenset()`` call, set
operator, set-typed annotation, or a ``self.x = set()`` in the same
class) — so the lint is fast, has no imports-time side effects, and
every finding points at code the reader can verify at a glance.

Rules
-----
``ND100`` malformed suppression (empty reason)
``ND101`` iteration over a ``set``/``frozenset`` in an order-sensitive
          position (``for``, comprehensions, ``list``/``tuple``/
          ``enumerate``/``zip``/``iter``/``reversed``/``map``/``filter``,
          ``str.join``, ``*``-unpacking, tuple unpacking)
``ND102`` wall-clock reads (``time.time``/``monotonic``/``perf_counter``
          family, ``datetime.now``/``utcnow``/``today``, ``date.today``)
``ND103`` unseeded randomness (module-level ``random.*`` draws,
          ``random.Random()``/``default_rng()`` with no seed,
          ``numpy.random.*`` module-level draws)
``ND104`` ambient entropy (``os.urandom``, ``uuid.uuid1``/``uuid4``,
          ``secrets.*``, ``random.SystemRandom``)
``ND105`` ``id()``-based ordering (``key=id``, ``id()`` inside a sort
          key lambda, ``id()`` as a dict-literal key)
``ND106`` ``hash()``-based ordering (``key=hash``, ``hash()`` inside a
          sort key lambda)
``ND107`` filesystem enumeration order (``os.listdir``/``os.scandir``,
          ``glob.glob``/``iglob``, ``Path.iterdir``/``glob``/``rglob``
          not immediately wrapped in ``sorted(...)``)

Suppression
-----------
A finding is suppressed by appending ``# sanitize: ok(<reason>)`` to the
flagged line.  The reason is mandatory; an empty one is itself a finding
(``ND100``), so suppressions stay auditable.

The simulator's core invariant — that per-key int sets iterate stably —
is *not* assumed here: every set iteration in an order-sensitive
position must either be restructured (usually ``sorted(...)``) or carry
an explicit justification.  The fixture corpus in
:mod:`repro.sanitize.corpus` proves each rule fires.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "LintFinding",
    "Rule",
    "RULES",
    "find_suppressions",
    "lint_paths",
    "lint_source",
]


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule: a stable code, short name, and one-line summary."""

    code: str
    name: str
    summary: str


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule("ND100", "bad-suppression",
             "suppression comment must carry a non-empty reason"),
        Rule("ND101", "unordered-iteration",
             "iteration over a set/frozenset in an order-sensitive "
             "position"),
        Rule("ND102", "wall-clock",
             "wall-clock read inside simulation code"),
        Rule("ND103", "unseeded-random",
             "randomness not derived from the experiment seed"),
        Rule("ND104", "ambient-entropy",
             "OS entropy source (urandom/uuid/secrets)"),
        Rule("ND105", "id-order",
             "ordering or keying by id() (address-dependent)"),
        Rule("ND106", "hash-order",
             "ordering by hash() (PYTHONHASHSEED-dependent)"),
        Rule("ND107", "fs-order",
             "filesystem enumeration order used without sorted()"),
    )
}


@dataclass(frozen=True, slots=True)
class LintFinding:
    """One flagged source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """``path:line:col: CODE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: ``# sanitize: ok(<reason>)`` — the per-line opt-out.
_SUPPRESS_RE = re.compile(r"#\s*sanitize:\s*ok\(([^)]*)\)")


def find_suppressions(source: str) -> dict[int, str]:
    """Map line number → suppression reason for every opt-out comment."""
    out: dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            out[lineno] = match.group(1).strip()
    return out


# ----------------------------------------------------------------------
# Set-typedness inference (local, syntactic)
# ----------------------------------------------------------------------

_SET_RETURNING_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "copy",
})
_SET_ANN_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_set_annotation(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Name):
        return ann.id in _SET_ANN_NAMES
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_ANN_NAMES
    return False


class _Scope:
    """Names proven set-typed in one lexical scope."""

    __slots__ = ("set_names", "parent")

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.set_names: set[str] = set()
        self.parent = parent

    def knows_set(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.set_names:
                return True
            scope = scope.parent
        return False


# ----------------------------------------------------------------------
# Hazard tables (ND102/ND103/ND104/ND107)
# ----------------------------------------------------------------------

_WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "process_time",
             "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}
_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "getrandbits",
    "randbytes", "seed",
})
_NUMPY_RANDOM_DRAWS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "exponential",
    "poisson", "zipf", "seed",
})
_FS_ENUM_CALLS = frozenset({"iterdir", "glob", "rglob"})
_ORDER_SENSITIVE_BUILTINS = frozenset({
    "list", "tuple", "enumerate", "iter", "reversed", "zip", "map",
    "filter",
})
_SORT_KEY_CALLS = frozenset({"sorted", "min", "max", "sort"})


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name for a call target (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _Linter(ast.NodeVisitor):
    """One module's lint pass (scope stack + hazard checks)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[LintFinding] = []
        self._scopes: list[_Scope] = [_Scope()]
        self._class_set_attrs: list[set[str]] = []
        #: node ids exempt from ND107 (first argument of ``sorted``).
        self._sorted_args: set[int] = set()

    # -- reporting ----------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(LintFinding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        ))

    # -- set inference --------------------------------------------------------

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and self._is_set(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set(node.body) or self._is_set(node.orelse)
        if isinstance(node, ast.Name):
            return self._scope.knows_set(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self._class_set_attrs
        ):
            return node.attr in self._class_set_attrs[-1]
        return False

    def _collect_scope_sets(self, node: ast.AST, scope: _Scope) -> None:
        """Pre-scan a function/module body for set-valued name bindings.

        Nested function bodies are skipped (they get their own scope);
        any name *ever* bound to a set expression counts, which errs
        toward flagging — the suppression syntax is the escape hatch.
        """
        for child in ast.walk(node):
            if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Assign):
                if self._is_set(child.value) or isinstance(
                    child.value, (ast.Set, ast.SetComp)
                ):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            scope.set_names.add(target.id)
            elif isinstance(child, ast.AnnAssign):
                if isinstance(child.target, ast.Name) and (
                    _is_set_annotation(child.annotation)
                    or (child.value is not None and self._is_set(child.value))
                ):
                    scope.set_names.add(child.target.id)

    def _collect_class_set_attrs(self, node: ast.ClassDef) -> set[str]:
        """``self.x`` attributes provably set-typed anywhere in the class."""
        attrs: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                value_is_set = isinstance(
                    child.value, (ast.Set, ast.SetComp)
                ) or (
                    isinstance(child.value, ast.Call)
                    and isinstance(child.value.func, ast.Name)
                    and child.value.func.id in ("set", "frozenset")
                )
                if value_is_set:
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
            elif isinstance(child, ast.AnnAssign):
                target = child.target
                if not _is_set_annotation(child.annotation):
                    continue
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    # -- scope management -----------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self._collect_scope_sets(node, self._scope)
        self.generic_visit(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        scope = _Scope(parent=self._scope)
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            if _is_set_annotation(arg.annotation):
                scope.set_names.add(arg.arg)
        self._collect_scope_sets(node, scope)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_set_attrs.append(self._collect_class_set_attrs(node))
        self.generic_visit(node)
        self._class_set_attrs.pop()

    # -- ND101: order-sensitive set consumption -------------------------------

    def _check_iteration(self, iterable: ast.expr, context: str) -> None:
        if self._is_set(iterable):
            self._flag(
                iterable, "ND101",
                f"iteration over a set/frozenset in {context} is "
                "hash-order sensitive; iterate sorted(...) or justify "
                "with `# sanitize: ok(...)`",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iteration(gen.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set is order-insensitive.
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)) and self._is_set(
                node.value
            ):
                self._flag(
                    node.value, "ND101",
                    "unpacking a set/frozenset draws elements in hash "
                    "order",
                )
        self.generic_visit(node)

    # -- calls: most rules live here -------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)

        # Mark sorted(...)'s first argument exempt from ND107 before
        # recursing into it.
        if isinstance(func, ast.Name) and func.id == "sorted" and node.args:
            self._sorted_args.add(id(node.args[0]))

        self._check_order_sensitive_call(node, func)
        self._check_wall_clock(node, func, dotted)
        self._check_randomness(node, func, dotted)
        self._check_entropy(node, dotted)
        self._check_sort_keys(node, func, dotted)
        self._check_fs_order(node, func, dotted)
        self.generic_visit(node)

    def _check_order_sensitive_call(
        self, node: ast.Call, func: ast.expr
    ) -> None:
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_BUILTINS:
            for arg in node.args:
                if self._is_set(arg):
                    self._flag(
                        arg, "ND101",
                        f"{func.id}() consumes a set/frozenset in hash "
                        "order",
                    )
        if isinstance(func, ast.Attribute) and func.attr == "join":
            for arg in node.args[:1]:
                if self._is_set(arg):
                    self._flag(
                        arg, "ND101",
                        "str.join over a set concatenates in hash order",
                    )
        for arg in node.args:
            if isinstance(arg, ast.Starred) and self._is_set(arg.value):
                self._flag(
                    arg, "ND101",
                    "*-unpacking a set passes arguments in hash order",
                )

    def _check_wall_clock(
        self, node: ast.Call, func: ast.expr, dotted: str
    ) -> None:
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if func.attr in _WALL_CLOCK_ATTRS.get(base_name, ()):
                self._flag(
                    node, "ND102",
                    f"{dotted}() reads the wall clock; simulation code "
                    "must use Kernel.timestamp()",
                )

    def _check_randomness(
        self, node: ast.Call, func: ast.expr, dotted: str
    ) -> None:
        if dotted.startswith("random.") and dotted.rsplit(".", 1)[-1] in (
            _RANDOM_DRAWS
        ):
            self._flag(
                node, "ND103",
                f"{dotted}() draws from the process-global RNG; use "
                "DeterministicRNG",
            )
            return
        last = dotted.rsplit(".", 1)[-1] if dotted else ""
        if (".random." in f".{dotted}" and last in _NUMPY_RANDOM_DRAWS
                and not dotted.startswith("random.")):
            self._flag(
                node, "ND103",
                f"{dotted}() draws from numpy's global RNG; use "
                "DeterministicRNG.np",
            )
            return
        if last in ("Random", "default_rng") and not node.args and not (
            node.keywords
        ):
            self._flag(
                node, "ND103",
                f"{dotted or last}() with no seed is entropy-seeded; pass "
                "a derived seed",
            )

    def _check_entropy(self, node: ast.Call, dotted: str) -> None:
        if dotted in ("os.urandom", "uuid.uuid1", "uuid.uuid4",
                      "random.SystemRandom") or dotted.startswith("secrets."):
            self._flag(
                node, "ND104",
                f"{dotted}() is an OS entropy source; derive ids from "
                "the experiment seed",
            )

    def _check_sort_keys(
        self, node: ast.Call, func: ast.expr, dotted: str
    ) -> None:
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name not in _SORT_KEY_CALLS:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            if isinstance(value, ast.Name) and value.id in ("id", "hash"):
                code = "ND105" if value.id == "id" else "ND106"
                self._flag(
                    kw.value, code,
                    f"{name}(key={value.id}) orders by "
                    f"{'memory address' if value.id == 'id' else 'salted hash'}",
                )
            elif isinstance(value, ast.Lambda):
                for inner in ast.walk(value.body):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in ("id", "hash")
                    ):
                        code = "ND105" if inner.func.id == "id" else "ND106"
                        self._flag(
                            inner, code,
                            f"sort key calls {inner.func.id}(); ordering "
                            "is not reproducible",
                        )

    def _check_fs_order(
        self, node: ast.Call, func: ast.expr, dotted: str
    ) -> None:
        is_fs = dotted in ("os.listdir", "os.scandir", "glob.glob",
                           "glob.iglob") or (
            isinstance(func, ast.Attribute) and func.attr in _FS_ENUM_CALLS
        )
        if is_fs and id(node) not in self._sorted_args:
            self._flag(
                node, "ND107",
                f"{dotted or func.attr}() yields entries in filesystem "
                "order; wrap in sorted(...)",
            )

    # -- ND105: id() as a dict-literal key -------------------------------------

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if (
                key is not None
                and isinstance(key, ast.Call)
                and isinstance(key.func, ast.Name)
                and key.func.id == "id"
            ):
                self._flag(
                    key, "ND105",
                    "dict keyed by id(); entry identity depends on "
                    "memory layout",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source; returns findings with suppressions applied."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    suppressions = find_suppressions(source)
    findings = [
        f for f in linter.findings
        if not (f.line in suppressions and suppressions[f.line])
    ]
    for line, reason in suppressions.items():
        if not reason:
            findings.append(LintFinding(
                path=path, line=line, col=1, code="ND100",
                message="suppression needs a reason: "
                        "`# sanitize: ok(<why this is deterministic>)`",
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _python_files(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(paths: Iterable[str]) -> list[LintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[LintFinding] = []
    for root in paths:
        for path in _python_files(root):
            with open(path, encoding="utf-8") as fh:
                findings.extend(lint_source(fh.read(), path))
    return findings
