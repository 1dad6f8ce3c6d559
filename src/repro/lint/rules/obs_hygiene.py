"""Observability-hygiene rules (RPR3xx).

The obs layer's cost model assumes three conventions: spans are opened
with ``with`` (a span's clock starts at creation, so parking one in a
variable inflates its duration and risks leaking it open), log messages
are lazily %-formatted (an f-string pays string formatting even when the
logger is disabled — the no-op fast path must stay one global read), and
metrics flow through the installed registry helpers rather than ad-hoc
``MetricsRegistry`` instances that nothing exports.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext, dotted_name
from repro.lint.findings import Severity
from repro.lint.registry import rule

__all__ = []

_SPAN_QUALNAMES = {"span", "repro.obs.span", "repro.obs.trace.span"}
_LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical", "log"}
_REGISTRY_QUALNAMES = {
    "MetricsRegistry",
    "repro.obs.MetricsRegistry",
    "repro.obs.metrics.MetricsRegistry",
}


def _is_logger_name(name: str) -> bool:
    last = name.split(".")[-1]
    return last == "logging" or "log" in last.lower()


@rule(
    code="RPR301",
    name="span-not-with",
    severity=Severity.WARNING,
    family="obs-hygiene",
    description=(
        "span() starts timing at the call; anything but `with span(...)` "
        "inflates the measured interval or leaks the span open"
    ),
    nodes=(ast.Call,),
)
def check_span_with(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name not in _SPAN_QUALNAMES:
        return
    if ctx.in_with_item(node):
        return
    yield node, (
        "span() outside a with-block: the span's clock is already running "
        "and nothing guarantees it closes — use `with span(...) as sp:`"
    )


@rule(
    code="RPR302",
    name="eager-log-formatting",
    severity=Severity.WARNING,
    family="obs-hygiene",
    description=(
        "Pre-formatted log messages (f-string/%/.format/concat) pay "
        "formatting even when the logger is disabled; pass lazy %-args"
    ),
    nodes=(ast.Call,),
)
def check_eager_log_formatting(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS):
        return
    owner = dotted_name(func.value)
    if owner is None or not _is_logger_name(owner):
        return
    if not node.args:
        return
    msg = node.args[0] if func.attr != "log" else (
        node.args[1] if len(node.args) > 1 else None
    )
    if msg is None:
        return
    kind: str | None = None
    if isinstance(msg, ast.JoinedStr):
        kind = "f-string"
    elif isinstance(msg, ast.BinOp) and isinstance(msg.op, ast.Mod):
        kind = "%-formatted string"
    elif isinstance(msg, ast.BinOp) and isinstance(msg.op, ast.Add):
        kind = "concatenated string"
    elif (
        isinstance(msg, ast.Call)
        and isinstance(msg.func, ast.Attribute)
        and msg.func.attr == "format"
    ):
        kind = ".format() call"
    if kind is not None:
        yield msg, (
            f"{owner}.{func.attr}() given a pre-formatted {kind}; use lazy "
            f'formatting ({owner}.{func.attr}("... %s", value)) so the '
            "disabled path stays free"
        )


_MONITOR_QUALNAMES = {
    "ResourceMonitor",
    "repro.obs.ResourceMonitor",
    "repro.obs.monitor.ResourceMonitor",
}


def _is_enter_context_arg(node: ast.Call, ctx: ModuleContext) -> bool:
    """Whether ``node`` is passed to an ``ExitStack.enter_context(...)``."""
    parent = ctx.parent(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Attribute)
        and parent.func.attr == "enter_context"
        and parent.args
        and parent.args[0] is node
    )


@rule(
    code="RPR304",
    name="unowned-monitor",
    severity=Severity.WARNING,
    family="obs-hygiene",
    description=(
        "ResourceMonitor() starts a sampling thread; anything but "
        "`with ResourceMonitor(...)` (or ExitStack.enter_context) risks "
        "the thread outliving its work"
    ),
    nodes=(ast.Call,),
)
def check_unowned_monitor(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name not in _MONITOR_QUALNAMES:
        return
    if ctx.in_with_item(node) or _is_enter_context_arg(node, ctx):
        return
    yield node, (
        "ResourceMonitor outside an owning with-block: the sampler thread "
        "has no guaranteed stop point and a fork while it runs duplicates "
        "its state — use `with ResourceMonitor(...) as mon:` (or "
        "stack.enter_context)"
    )


_CACHE_CLASS_SUFFIXES = ("Recommender", "Frontend")
_DICT_FACTORY_NAMES = {"dict", "OrderedDict", "defaultdict", "Counter"}


def _enclosing_class(node: ast.AST, ctx: ModuleContext) -> ast.ClassDef | None:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


def _is_serving_class(cls: ast.ClassDef) -> bool:
    """A recommender/frontend by name, or by inheriting one."""
    if cls.name.endswith(_CACHE_CLASS_SUFFIXES):
        return True
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1].endswith(_CACHE_CLASS_SUFFIXES):
            return True
    return False


def _is_dict_expr(value: ast.AST, ctx: ModuleContext) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        name = ctx.qualname(value.func)
        return name is not None and name.split(".")[-1] in _DICT_FACTORY_NAMES
    return False


@rule(
    code="RPR305",
    name="unbounded-serving-cache",
    severity=Severity.WARNING,
    family="obs-hygiene",
    description=(
        "a dict used as a cache on a recommender/frontend class grows one "
        "entry per distinct key and is never evicted — a memory leak under "
        "production traffic; use repro.streaming.lru.LRUCache"
    ),
    nodes=(ast.Assign, ast.AnnAssign),
)
def check_unbounded_serving_cache(
    node: ast.Assign | ast.AnnAssign, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    value = node.value
    if value is None or not _is_dict_expr(value, ctx):
        return
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and "cache" in target.attr.lower()
        ):
            continue
        cls = _enclosing_class(node, ctx)
        if cls is None or not _is_serving_class(cls):
            continue
        yield target, (
            f"self.{target.attr} on {cls.name} is a plain dict used as a "
            "cache: it holds one entry per distinct key forever (unbounded "
            "under real traffic) — use repro.streaming.lru.LRUCache with a "
            "maxsize bound and eviction counters"
        )


@rule(
    code="RPR303",
    name="ad-hoc-registry",
    severity=Severity.WARNING,
    family="obs-hygiene",
    description=(
        "MetricsRegistry() outside the obs infrastructure records "
        "metrics nothing exports; use counter_add/gauge_set/observe_value"
    ),
    nodes=(ast.Call,),
)
def check_ad_hoc_registry(
    node: ast.Call, ctx: ModuleContext
) -> Iterator[tuple[ast.AST, str]]:
    name = ctx.qualname(node.func)
    if name in _REGISTRY_QUALNAMES:
        yield node, (
            "ad-hoc MetricsRegistry(); counters created here never reach an "
            "exporter — record through repro.obs counter_add/gauge_set/"
            "observe_value against the installed registry"
        )
