"""Determinism rules (RPR1xx).

The repo's reproducibility contract: every stochastic call threads an
explicit ``numpy.random.Generator`` created by :mod:`repro.utils.rng`,
no code reads wall-clock time inside numeric paths, nothing
materialises a ``set`` into an ordered sequence without ``sorted()``,
and no test asserts on the ratio of two timings.
One unseeded draw or hash-order iteration silently breaks the
``workers=1`` vs ``workers=4`` bitwise-equivalence guarantee.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Severity
from repro.lint.registry import rule

__all__ = []

# Consumers whose result order follows the iterable's order.
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate", "iter", "next", "reversed"}
# Consumers whose result does not depend on iteration order.
_ORDER_FREE_CALLS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "len",
}
_ORDER_SENSITIVE_NUMPY = {
    "numpy.array",
    "numpy.asarray",
    "numpy.asanyarray",
    "numpy.fromiter",
    "numpy.stack",
    "numpy.concatenate",
}
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}
_TIMER_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}


@rule(
    code="RPR101",
    name="global-numpy-rng",
    severity=Severity.ERROR,
    family="determinism",
    description=(
        "Calls into numpy.random.* use the process-global (or ad-hoc) RNG; "
        "thread a Generator from repro.utils.rng instead"
    ),
    nodes=(ast.Call,),
)
def check_numpy_random_call(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name is not None and name.startswith("numpy.random."):
        yield node, (
            f"call to {name} bypasses repro.utils.rng; accept a seed/Generator "
            "and route it through ensure_rng()/derive_rng()"
        )


@rule(
    code="RPR102",
    name="stdlib-random",
    severity=Severity.ERROR,
    family="determinism",
    description=(
        "The stdlib random module is process-global, unseeded here, and "
        "invisible to the repo's RNG plumbing"
    ),
    nodes=(ast.Import, ast.ImportFrom),
)
def check_stdlib_random_import(
    node: ast.Import | ast.ImportFrom, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] == "random":
            yield node, (
                "import from stdlib random; use repro.utils.rng generators instead"
            )
        return
    for alias in node.names:
        if alias.name.split(".")[0] == "random":
            yield node, (
                "import of stdlib random; use repro.utils.rng generators instead"
            )


@rule(
    code="RPR103",
    name="wall-clock-call",
    severity=Severity.WARNING,
    family="determinism",
    description=(
        "Wall-clock reads (time.time, datetime.now) are nondeterministic "
        "inputs; use time.perf_counter for durations or pass timestamps in"
    ),
    nodes=(ast.Call,),
)
def check_wall_clock(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name in _WALL_CLOCK_CALLS:
        yield node, (
            f"{name}() reads the wall clock; use time.perf_counter for "
            "durations, or make the timestamp an explicit input"
        )


@rule(
    code="RPR104",
    name="set-order-iteration",
    severity=Severity.WARNING,
    family="determinism",
    description=(
        "Iterating or materialising a set produces hash-order-dependent "
        "sequences; wrap the set in sorted() at the boundary"
    ),
    nodes=(ast.For, ast.Call, ast.ListComp, ast.GeneratorExp),
)
def check_set_order(
    node: ast.AST, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    if isinstance(node, ast.For):
        if ctx.is_set_expr(node.iter):
            yield node.iter, (
                "for-loop over a set iterates in hash order; loop over "
                "sorted(...) when order can reach results"
            )
        return
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        if isinstance(node, ast.GeneratorExp):
            parent = ctx.parent(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_FREE_CALLS
            ):
                return
        for comp in node.generators:
            if ctx.is_set_expr(comp.iter):
                yield comp.iter, (
                    "comprehension over a set yields hash-ordered elements; "
                    "iterate sorted(...) instead"
                )
        return
    # ast.Call: ordered materialisers fed a set.
    func = node.func
    if not node.args:
        return
    first = node.args[0]
    target: str | None = None
    if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_BUILTINS:
        target = func.id
    else:
        qual = ctx.qualname(func)
        if qual in _ORDER_SENSITIVE_NUMPY:
            target = qual
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            target = "str.join"
    if target is not None and ctx.is_set_expr(first):
        yield node, (
            f"{target}() over a set materialises hash order; use sorted(...) "
            "to fix a canonical order"
        )


def _target_names(target: ast.AST) -> list[str]:
    """Names an assignment target writes (``t[k] = ...`` writes ``t``)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _target_names(elt)]
    while isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
        target = target.value
    return [target.id] if isinstance(target, ast.Name) else []


def _is_timed(expr: ast.AST, timed: set[str], ctx: ModuleContext) -> bool:
    """``expr`` reads a monotonic timer or a name derived from one."""
    return any(
        (isinstance(sub, ast.Call) and ctx.qualname(sub.func) in _TIMER_CALLS)
        or (isinstance(sub, ast.Name) and sub.id in timed)
        for sub in ast.walk(expr)
    )


def _has_ratio(expr: ast.AST, timed: set[str], ratios: set[str], ctx: ModuleContext) -> bool:
    """``expr`` divides one timing by another, or reads such a quotient."""
    return any(
        (
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, (ast.Div, ast.FloorDiv))
            and _is_timed(sub.left, timed, ctx)
            and _is_timed(sub.right, timed, ctx)
        )
        or (isinstance(sub, ast.Name) and sub.id in ratios)
        for sub in ast.walk(expr)
    )


@rule(
    code="RPR105",
    name="wall-clock-ratio-assert",
    severity=Severity.ERROR,
    family="determinism",
    description=(
        "A test that asserts on the ratio of two timings passes or fails "
        "with the host's load; assert on counts or bytes, and leave speed "
        "to the benchmarks"
    ),
    nodes=(ast.Assert,),
)
def check_timing_ratio_assert(
    node: ast.Assert, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    if "tests" not in ctx.path.split("/"):
        return
    # Names in the assert's function derived from a timer (``timed``) and
    # holding a quotient of two timings (``ratios``), to a fixed point.
    assigns = [
        sub
        for sub in ast.walk(ctx.enclosing_scope(node))
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and sub.value
    ]
    timed: set[str] = set()
    ratios: set[str] = set()
    grew = True
    while grew:
        grew = False
        for sub in assigns:
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            names = {name for target in targets for name in _target_names(target)}
            if _is_timed(sub.value, timed, ctx) and not names <= timed:
                timed |= names
                grew = True
            if _has_ratio(sub.value, timed, ratios, ctx) and not names <= ratios:
                ratios |= names
                grew = True
    for cmp in ast.walk(node.test):
        if isinstance(cmp, ast.Compare) and any(
            _has_ratio(side, timed, ratios, ctx) for side in [cmp.left, *cmp.comparators]
        ):
            yield node, (
                "assert on a ratio of wall-clock timings depends on the "
                "host's load; assert on counts or bytes, or move the "
                "speed check to a benchmark"
            )
            return
