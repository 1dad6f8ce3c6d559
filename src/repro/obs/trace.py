"""Hierarchical tracing spans.

A :class:`Tracer` records a forest of nested :class:`Span` objects —
wall-clock intervals with a name, attached attributes and parent/child
structure.  Instrumented code never talks to a tracer directly; it calls
the module-level :func:`span` helper (or decorates functions with
:func:`traced`), which consults the module-global active tracer.

The disabled fast path is the design centre: when no tracer is
installed, :func:`span` returns a shared no-op singleton and
:func:`traced` wrappers call straight through, so instrumentation left
in hot loops costs one global read and a ``None`` check (verified by a
bench guard in ``tests/obs/test_overhead.py``).

Pool tasks open no spans: the span stack is a plain module-global, not
thread-safe, so :mod:`repro.parallel`'s worker threads record counters
only, and the map's one ``parallel.map`` span covers their tasks.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "span",
    "traced",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_enabled",
]


class Span:
    """One timed interval in the trace tree.

    Spans double as context managers: entering is implicit (they are
    created started by :meth:`Tracer.start`), exiting finishes them and
    pops the tracer's stack.  ``attrs`` may be extended while the span
    is open via :meth:`set` — e.g. a loss known only at epoch end.
    """

    __slots__ = ("name", "attrs", "children", "start_s", "end_s", "_tracer")

    def __init__(self, name: str, attrs: dict[str, Any], tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self._tracer = tracer

    @property
    def duration_s(self) -> float:
        """Elapsed seconds; the running time if the span is still open."""
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    @property
    def self_s(self) -> float:
        """Duration minus the time spent in direct children."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` over this subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s:.6f}s" if self.end_s is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records a forest of spans with an explicit open-span stack."""

    def __init__(self) -> None:
        self.origin_s = time.perf_counter()
        # Wall-clock anchor so exported traces can be located in time;
        # it never feeds numeric results.
        self.origin_epoch_s = time.time()  # repro-lint: disable=RPR103
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def start(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        """Open a span as a child of the innermost open span."""
        sp = Span(name, attrs or {}, self)
        self._stack.append(sp)
        return sp

    def finish(self, sp: Span) -> None:
        """Close ``sp`` and attach it to its parent (or the root list).

        Spans closed out of order are tolerated: everything opened after
        ``sp`` is adopted as its descendant, so a leaked inner span can
        never corrupt the forest.
        """
        if sp.end_s is not None:
            return
        sp.end_s = time.perf_counter()
        while self._stack and self._stack[-1] is not sp:
            self.finish(self._stack[-1])
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)

    def close(self) -> None:
        """Finish any spans left open (e.g. after an exception)."""
        while self._stack:
            self.finish(self._stack[-1])

    def all_spans(self) -> Iterator[tuple[Span, int]]:
        """Pre-order ``(span, depth)`` over every root."""
        for root in self.roots:
            yield from root.walk()


# ---------------------------------------------------------------------------
# Module-level fast path
# ---------------------------------------------------------------------------
_TRACER: Tracer | None = None


def span(name: str, **attrs: Any):
    """Open a span on the active tracer, or a no-op when disabled.

    Usage::

        with obs.span("hignn.level", level=level) as sp:
            ...
            sp.set(loss=loss)
    """
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.start(name, attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator wrapping a function in a span named after it."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = _TRACER
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.start(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def current_tracer() -> Tracer | None:
    """The installed tracer, or None while tracing is disabled."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER is not None


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the module-global tracer."""
    global _TRACER
    _TRACER = tracer or Tracer()
    return _TRACER


def uninstall_tracer() -> Tracer | None:
    """Remove the global tracer (closing open spans); returns it."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()
    return tracer
