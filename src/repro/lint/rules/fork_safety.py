"""Fork-safety rules (RPR2xx).

The parallel layer's contract (see :mod:`repro.parallel.pool`): task
callables must be module-level (workers import them by reference),
worker task functions must not write process-global state (the write
lands in the forked copy and is silently lost), and memory maps must
have an owner with a deterministic release.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Severity
from repro.lint.registry import rule

__all__ = []

_MAP_METHODS = {"map", "map_async", "imap", "imap_unordered", "starmap", "apply_async"}


@rule(
    code="RPR201",
    name="unpicklable-task",
    severity=Severity.ERROR,
    family="fork-safety",
    description=(
        "Lambdas and nested functions submitted to a pool map cannot be "
        "pickled by reference; use a module-level task function"
    ),
    nodes=(ast.Call,),
)
def check_unpicklable_task(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _MAP_METHODS):
        return
    if not node.args:
        return
    task = node.args[0]
    if isinstance(task, ast.Lambda):
        yield task, (
            f".{func.attr}() given a lambda; workers import tasks by "
            "reference — move the body to a module-level function"
        )
    elif isinstance(task, ast.Name) and task.id in ctx.nested_functions:
        yield task, (
            f".{func.attr}() given nested function {task.id!r}; closures do "
            "not pickle — move it to module level and pass state via context"
        )


@rule(
    code="RPR202",
    name="task-mutates-global",
    severity=Severity.WARNING,
    family="fork-safety",
    description=(
        "Worker task functions writing module-level mutable state mutate "
        "the forked copy; results must travel via return values"
    ),
    nodes=(ast.FunctionDef, ast.AsyncFunctionDef),
)
def check_task_global_mutation(
    node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    if node.name not in ctx.task_functions:
        return
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Global):
            yield stmt, (
                f"worker task {node.name!r} declares global "
                f"{', '.join(stmt.names)}; writes are lost in the fork — "
                "return the value instead"
            )
        elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                root = target
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root is not target
                    and root.id in ctx.module_level_mutables
                ):
                    yield stmt, (
                        f"worker task {node.name!r} writes module-level "
                        f"{root.id!r}; the mutation stays in the worker — "
                        "return the value instead"
                    )


_MEMMAP_CTORS = {"numpy.memmap", "numpy.lib.format.open_memmap"}


@rule(
    code="RPR205",
    name="unowned-memmap",
    severity=Severity.WARNING,
    family="fork-safety",
    description=(
        "np.memmap opened outside an owning context keeps the mapping "
        "(and its file handle) alive until GC; go through the shard "
        "storage helpers or a with-block"
    ),
    nodes=(ast.Call,),
)
def check_unowned_memmap(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name not in _MEMMAP_CTORS:
        return
    if ctx.in_with_item(node):
        return
    yield node, (
        f"{name}() outside an owning context; forked workers inherit the "
        "mapping and the file cannot be reclaimed deterministically — use "
        "repro.shard.storage.open_block() or wrap the mapping's lifetime "
        "in a with-block"
    )
