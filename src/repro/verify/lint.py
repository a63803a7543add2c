"""AST lint rules guarding the invariants the memoization layers assume.

The planner and the simulator are fast because caches are layered over
the hot paths (``ColumnarEvaluator`` column tables and gradient-pricing
memos, shard-terms pricing, ``RoutedPlan._sim_cache`` tapes).  Those
caches are only sound while the code obeys a handful of structural
rules — frozen dataclasses stay frozen, cache keys are structural
fingerprints, nothing iterates a ``set`` into ordered output, and
pricing code never reads wall-clock or RNG state.  This module enforces them with :mod:`ast`, stdlib-only.

Rules
-----
``lint/frozen-setattr``
    ``object.__setattr__`` outside ``__post_init__`` mutates a frozen
    dataclass someone else may have hashed or cached.
``lint/cache-key``
    ``id(...)`` inside a tuple (an identity-keyed cache key: ids alias
    once the object is collected), or a ``*cache*`` mapping indexed with a
    list/dict/set literal (unhashable or mutable key).  Scoped to
    ``core/`` and ``simulator/``, where the memoization layers live.
``lint/set-order``
    Iterating a set expression into ordered output (a ``for`` loop, a
    list/dict comprehension, or a bare generator) in ``core/`` or
    ``simulator/``: set order varies across processes (PYTHONHASHSEED)
    and breaks bit-exact replay.  Order-insensitive reducers
    (``sorted``/``min``/``max``/``sum``/``any``/``all``/``len``/``set``/
    ``frozenset``) are exempt.
``lint/wallclock``
    ``time.time``/``perf_counter``-style clock reads or any ``random``
    use inside the pricing/simulation modules — results there must be a
    pure function of the plan, the mesh and the config.
``lint/columnar-scalar-loop``
    A Python ``for`` loop or comprehension iterating one of the compiled
    columnar arrays element-wise inside ``core/columnar*.py`` (iterables
    named ``*mat``/``*_col``/``*_cols``/``*_tab``/``*_arr``, including
    through ``range``/``len``/``enumerate``/``zip``/``reversed``).  The
    columnar tier's whole contract is that per-node work is batched array
    ops; a scalar loop over those arrays silently reintroduces the
    per-node floor the tier exists to remove.

False positives are suppressed inline with ``# repro-lint: ignore[rule]``
(comma-separate several rules; the bare rule name or its ``lint/``-prefixed
form both match).  Suppression applies to every line the flagged
statement spans.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .diagnostics import Diagnostic
from .pragmas import suppressed, suppressions

__all__ = ["LINT_RULES", "lint_source", "lint_paths"]

#: rule id → one-line rationale (DESIGN.md renders this table).
LINT_RULES: Dict[str, str] = {
    "lint/frozen-setattr": "object.__setattr__ outside __post_init__ mutates "
    "frozen (hashed, cached) instances",
    "lint/cache-key": "id()-keyed or unhashable-literal cache keys alias and "
    "poison memoization",
    "lint/set-order": "set iteration order varies per process; ordered output "
    "from it breaks bit-exact replay",
    "lint/wallclock": "clock/RNG reads make pricing impure; costs must be a "
    "function of plan x mesh x config",
    "lint/columnar-scalar-loop": "per-element Python loops over the compiled "
    "columnar arrays reintroduce the per-node floor the tier removes",
}

#: modules where wall-clock/random reads are forbidden (pricing and
#: simulation must be pure).  convergence.py is deliberately absent: seeded
#: synthetic curves are its purpose.  fingerprint/serialize are here
#: because plan cache keys and envelopes must be byte-identical across
#: processes — a timestamp in either poisons the persistent cache.
_WALLCLOCK_MODULES = (
    "core/columnar.py",
    "core/cost.py",
    "core/evaluate.py",
    "core/fingerprint.py",
    "core/packing.py",
    "core/serialize.py",
    "simulator/columnar.py",
    "simulator/engine.py",
    "simulator/iteration.py",
    "simulator/memory.py",
    "simulator/fusion.py",
    "simulator/trace.py",
)

_CLOCK_ATTRS = {"time", "perf_counter", "monotonic", "time_ns", "process_time"}

#: callables whose result does not depend on iteration order.
_ORDER_FREE = {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}


def _norm(path: str) -> str:
    return str(path).replace("\\", "/")


def _in_core_or_simulator(path: str) -> bool:
    p = _norm(path)
    return "/core/" in p or "/simulator/" in p or p.startswith(("core/", "simulator/"))


def _is_wallclock_module(path: str) -> bool:
    p = _norm(path)
    return any(p.endswith(m) for m in _WALLCLOCK_MODULES)


#: iterable-name suffixes that mark a compiled columnar array.
_COLUMNAR_ARRAY_SUFFIXES = ("mat", "_col", "_cols", "_tab", "_arr")

_COLUMNAR_FILE = re.compile(r"(^|/)(core|simulator)/columnar[^/]*\.py$")


def _is_columnar_module(path: str) -> bool:
    return bool(_COLUMNAR_FILE.search(_norm(path)))


def _columnar_iterable(node: ast.AST) -> bool:
    """Does this iterable expression resolve to a columnar array?

    Matches a bare name or attribute whose terminal identifier carries a
    columnar-array suffix, and sees through the usual scalar-loop
    wrappers (``range(len(optmat))``, ``enumerate(...)``, ``zip(...)``,
    ``reversed(...)``).
    """
    if isinstance(node, ast.Name):
        return node.id.endswith(_COLUMNAR_ARRAY_SUFFIXES)
    if isinstance(node, ast.Attribute):
        return node.attr.endswith(_COLUMNAR_ARRAY_SUFFIXES)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("range", "len", "enumerate", "zip", "reversed")
    ):
        return any(_columnar_iterable(a) for a in node.args)
    return False


def _is_setlike(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setlike(node.left) or _is_setlike(node.right)
    return False


def _cacheish_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "cache" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "cache" in node.attr.lower()
    return False


def _contains_unhashable_literal(node: ast.AST) -> bool:
    return any(
        isinstance(sub, (ast.List, ast.Dict, ast.Set)) for sub in ast.walk(node)
    )


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str) -> None:
        self.path = _norm(path)
        self.diagnostics: List[Diagnostic] = []
        self._suppressed = suppressions(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        self._fn_stack: List[str] = []
        self._scoped = _in_core_or_simulator(self.path)
        self._wallclock = _is_wallclock_module(self.path)
        self._columnar = _is_columnar_module(self.path)

    # -- plumbing ----------------------------------------------------------
    def run(self, tree: ast.AST) -> List[Diagnostic]:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.visit(tree)
        return self.diagnostics

    def _flag(self, rule: str, node: ast.AST, message: str, hint: str = "") -> None:
        lineno = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", None) or lineno
        if suppressed(self._suppressed, rule, lineno, end):
            return
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                message=message,
                where=f"{self.path}:{lineno}",
                hint=hint,
            )
        )

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    # -- function tracking (for the __post_init__ exemption) ---------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    # -- lint/frozen-setattr ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            if "__post_init__" not in self._fn_stack:
                self._flag(
                    "lint/frozen-setattr",
                    node,
                    "object.__setattr__ outside __post_init__ mutates a "
                    "frozen instance",
                    hint="construct a new instance instead; frozen objects "
                    "may already be hashed into a cache",
                )
        # lint/cache-key: id() building a cache key tuple
        if (
            self._scoped
            and isinstance(func, ast.Name)
            and func.id == "id"
            and isinstance(self._parent(node), ast.Tuple)
        ):
            self._flag(
                "lint/cache-key",
                node,
                "id(...) inside a key tuple: ids alias once the object is "
                "collected",
                hint="key on a structural fingerprint, or pin the object and "
                "re-check identity on hit "
                "(# repro-lint: ignore[cache-key] if pinned)",
            )
        # lint/cache-key: cache.get(<unhashable literal>)
        if (
            self._scoped
            and isinstance(func, ast.Attribute)
            and func.attr in ("get", "setdefault", "pop")
            and _cacheish_name(func.value)
            and node.args
            and _contains_unhashable_literal(node.args[0])
        ):
            self._flag(
                "lint/cache-key",
                node,
                "cache accessed with a list/dict/set literal in the key",
                hint="use tuples / frozensets so keys are hashable and stable",
            )
        self.generic_visit(node)

    # -- lint/cache-key: cache[<unhashable literal>] -----------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self._scoped
            and _cacheish_name(node.value)
            and _contains_unhashable_literal(node.slice)
        ):
            self._flag(
                "lint/cache-key",
                node,
                "cache subscripted with a list/dict/set literal in the key",
                hint="use tuples / frozensets so keys are hashable and stable",
            )
        self.generic_visit(node)

    # -- lint/set-order ----------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._scoped and _is_setlike(node.iter):
            self._flag(
                "lint/set-order",
                node.iter,
                "for-loop over a set expression: iteration order is not "
                "deterministic across processes",
                hint="wrap in sorted(...) or restructure to an ordered "
                "container",
            )
        if self._columnar and _columnar_iterable(node.iter):
            self._flag(
                "lint/columnar-scalar-loop",
                node.iter,
                "per-element Python loop over a columnar array",
                hint="batch the work as array ops; if this loop is "
                "genuinely per-row control flow, suppress with "
                "# repro-lint: ignore[columnar-scalar-loop]",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        if self._columnar:
            for gen in node.generators:
                if _columnar_iterable(gen.iter):
                    self._flag(
                        "lint/columnar-scalar-loop",
                        node,
                        "per-element comprehension over a columnar array",
                        hint="batch the work as array ops; if this loop is "
                        "genuinely per-row control flow, suppress with "
                        "# repro-lint: ignore[columnar-scalar-loop]",
                    )
        if not self._scoped:
            self.generic_visit(node)
            return
        for gen in node.generators:
            if not _is_setlike(gen.iter):
                continue
            if isinstance(node, ast.SetComp):
                continue  # output is itself unordered — no order leaks
            if isinstance(node, ast.GeneratorExp):
                parent = self._parent(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE
                ):
                    continue
            self._flag(
                "lint/set-order",
                node,
                "set expression iterated into ordered output",
                hint="sort first, or feed it only to order-insensitive "
                "reducers (sorted/min/max/sum/any/all)",
            )
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    visit_SetComp = _check_comprehension

    # -- lint/wallclock ----------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._wallclock and isinstance(node.value, ast.Name):
            if node.value.id == "time" and node.attr in _CLOCK_ATTRS:
                self._flag(
                    "lint/wallclock",
                    node,
                    f"time.{node.attr} read in a pricing/simulation module",
                    hint="pass timestamps in from the caller; cost code must "
                    "be a pure function of its inputs",
                )
            elif node.value.id == "random":
                self._flag(
                    "lint/wallclock",
                    node,
                    f"random.{node.attr} used in a pricing/simulation module",
                    hint="randomness breaks bit-exact replay; thread a seeded "
                    "generator through explicitly if needed",
                )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._wallclock:
            for alias in node.names:
                if alias.name == "random":
                    self._flag(
                        "lint/wallclock",
                        node,
                        "random imported in a pricing/simulation module",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._wallclock and node.module in ("time", "random"):
            names = [a.name for a in node.names]
            if node.module == "random" or any(n in _CLOCK_ATTRS for n in names):
                self._flag(
                    "lint/wallclock",
                    node,
                    f"from {node.module} import {', '.join(names)} in a "
                    "pricing/simulation module",
                )
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text; returns its diagnostics."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="lint/syntax",
                message=f"cannot parse: {exc.msg}",
                where=f"{_norm(str(path))}:{exc.lineno or 0}",
            )
        ]
    return _Linter(str(path), source).run(tree)


def lint_paths(paths: Iterable[str | Path]) -> List[Diagnostic]:
    """Lint every ``.py`` file under *paths* (files or directories).

    Files are visited in sorted order so output is stable across runs and
    machines.
    """
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    diagnostics: List[Diagnostic] = []
    for f in files:
        diagnostics.extend(lint_source(f.read_text(), str(f)))
    return diagnostics
