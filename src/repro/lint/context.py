"""Per-module analysis context shared by every rule checker.

One :class:`ModuleContext` is built per linted file.  It owns the parsed
tree plus the cheap whole-module indexes the rules need:

* a parent map (AST nodes do not know their parents),
* an import table so ``np.random.default_rng`` and
  ``numpy.random.default_rng`` resolve to the same dotted name,
* per-scope tracking of names that are (or may be) ``set``-typed, fed by
  annotations and assignments,
* the set of worker-task function names (anything passed by name to a
  ``.map`` / ``.map_async`` call),
* module-level mutable names (for the fork-safety rules),
* suppression comments (``# repro-lint: disable=...``).

Everything is computed in two linear passes over the tree at
construction; checkers then do O(1)-ish lookups.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Iterator

__all__ = ["ModuleContext", "dotted_name"]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<file>-file)?\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+|all)"
)

_SCOPE_TYPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

_SET_TYPE_NAMES = {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}

_MUTABLE_LITERALS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)

_MAP_METHOD_NAMES = {"map", "map_async", "imap", "imap_unordered", "starmap"}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleContext:
    """Parsed module plus the indexes rule checkers consult."""

    def __init__(self, path: str, source: str, tree: ast.Module | None = None) -> None:
        self.path = str(PurePosixPath(path))
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        parts = PurePosixPath(self.path).parts
        name = PurePosixPath(self.path).name
        self.is_test = (
            name.startswith("test_")
            or name == "conftest.py"
            or "tests" in parts
        )

        self.parents: dict[ast.AST, ast.AST] = {}
        self.imports: dict[str, str] = {}  # local alias -> module dotted path
        self.module_level_mutables: set[str] = set()
        self.task_functions: set[str] = set()
        self._scope_sets: dict[ast.AST, set[str]] = {}
        self.line_suppressions: dict[int, set[str]] = {}
        self.file_suppressions: set[str] = set()

        self._index_tree()
        self._parse_suppressions()

    # -- construction passes -------------------------------------------
    def _index_tree(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._scope_sets[self.tree] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    for alias in node.names:
                        self.imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scope_sets.setdefault(node, set())
                self._collect_arg_annotations(node)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and self._is_set_annotation(
                    node.annotation
                ):
                    self._mark_set_name(node, node.target.id)
            elif isinstance(node, ast.Assign):
                self._collect_assignment(node)
            elif isinstance(node, ast.Call):
                self._collect_map_call(node)

    def _collect_arg_annotations(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = fn.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None and self._is_set_annotation(arg.annotation):
                self._scope_sets.setdefault(fn, set()).add(arg.arg)

    def _collect_assignment(self, node: ast.Assign) -> None:
        scope = self.enclosing_scope(node)
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if self.is_set_expr(node.value, scope=scope):
                self._mark_set_name(node, target.id)
            if isinstance(scope, ast.Module) and (
                isinstance(node.value, _MUTABLE_LITERALS)
                or (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in {"dict", "list", "set"}
                )
            ):
                self.module_level_mutables.add(target.id)

    def _collect_map_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MAP_METHOD_NAMES
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            self.task_functions.add(node.args[0].id)

    def _mark_set_name(self, node: ast.AST, name: str) -> None:
        scope = self.enclosing_scope(node)
        self._scope_sets.setdefault(scope, set()).add(name)

    def _parse_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = {
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            }
            if "ALL" in codes:
                codes = {"all"}
            if match.group("file"):
                self.file_suppressions |= codes
            else:
                self.line_suppressions.setdefault(lineno, set()).update(codes)

    # -- lookups --------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """The innermost function (or the module) containing ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, _SCOPE_TYPES):
                return ancestor
        return self.tree

    def qualname(self, node: ast.AST) -> str | None:
        """Dotted name with the leading import alias resolved.

        ``np.random.default_rng`` becomes ``numpy.random.default_rng``
        when the module did ``import numpy as np``; ``span`` becomes
        ``repro.obs.span`` after ``from repro.obs import span``.  Names
        with no matching import resolve to their literal dotted form.
        """
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        resolved = self.imports.get(head)
        if resolved is None:
            return name
        return f"{resolved}.{rest}" if rest else resolved

    def is_set_expr(self, node: ast.AST, scope: ast.AST | None = None) -> bool:
        """Whether ``node`` statically looks like a ``set`` value."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self.is_set_expr(node.left, scope) or self.is_set_expr(
                node.right, scope
            )
        if isinstance(node, ast.Name):
            lookup = scope if scope is not None else self.enclosing_scope(node)
            while True:
                if node.id in self._scope_sets.get(lookup, ()):
                    return True
                if isinstance(lookup, ast.Module):
                    return False
                lookup = self.enclosing_scope(lookup)
        return False

    def _is_set_annotation(self, annotation: ast.AST) -> bool:
        """True when an annotation names (or includes, via ``|``) a set type."""
        if isinstance(annotation, ast.Name):
            return annotation.id in _SET_TYPE_NAMES
        if isinstance(annotation, ast.Subscript):
            return self._is_set_annotation(annotation.value)
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in _SET_TYPE_NAMES
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._is_set_annotation(annotation.left) or self._is_set_annotation(
                annotation.right
            )
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            # String annotation: cheap textual check.
            return any(name in annotation.value for name in ("set[", "Set["))
        return False

    def in_with_item(self, call: ast.AST) -> bool:
        """Whether ``call`` is directly a ``with`` statement's context expr."""
        parent = self.parent(call)
        return isinstance(parent, ast.withitem) and parent.context_expr is call

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
