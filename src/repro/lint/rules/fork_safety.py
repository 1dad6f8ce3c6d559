"""Fork-safety rules (RPR2xx).

The parallel layer's contract (see :mod:`repro.parallel.pool`): pool
task functions must not write module-level state (tasks run at once on
worker threads, so the write is a data race), and memory maps must have
an owner with a deterministic release.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Severity
from repro.lint.registry import rule

__all__ = []


@rule(
    code="RPR202",
    name="task-mutates-global",
    severity=Severity.WARNING,
    family="fork-safety",
    description=(
        "Pool task functions writing module-level mutable state race with "
        "the other tasks on the worker threads; return results instead"
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
                f"pool task {node.name!r} declares global "
                f"{', '.join(stmt.names)}; tasks run concurrently, so the "
                "write is a data race — return the value instead"
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
                        f"pool task {node.name!r} writes module-level "
                        f"{root.id!r}; tasks run concurrently, so the write "
                        "is a data race — return the value instead"
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
        f"{name}() outside an owning context; the mapping and its file "
        "handle live until garbage collection, so the file cannot be "
        "reclaimed deterministically — use repro.shard.storage.open_block() "
        "or wrap the mapping's lifetime in a with-block"
    )
