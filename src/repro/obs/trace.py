"""Lightweight span tracing for the query and write paths.

A *trace* is a tree of :class:`Span` objects timed with the monotonic
``time.perf_counter_ns`` clock.  The active span lives in a
:data:`contextvars.ContextVar`, so nesting needs no explicit plumbing:
``span("crack")`` anywhere below an active root attaches itself to
whatever span is currently open in this thread/task.

The design constraint is the *disabled* cost, because every query-path
instrumentation site runs on the engine's hot path:

* :func:`tracing` is one ``ContextVar.get`` — use it to guard meta
  computations that only matter when a trace is live;
* :func:`span` with no active trace returns a shared no-op context
  manager without allocating anything.

Tracing activates in three ways: ``EXPLAIN ANALYZE <stmt>`` traces that
one statement, ``Database(trace=True)`` traces every statement
(:meth:`Database.last_trace` keeps the most recent tree), and
``Database(slow_query_ms=...)`` traces each statement so the slow-query
log can include the span breakdown.  Traces nest: an outer trace simply
gains the inner one's spans as children.

Typical use::

    with start_span("statement") as root:
        with span("parse"):
            ...
        with span("crack", column="r.a") as crack:
            ...
            crack.meta["pieces"] = 12
    for depth, node in root.walk():   # the tree, depth-first
        print("  " * depth, node.name, node.duration_ms)
"""

from __future__ import annotations

import time
from contextvars import ContextVar

__all__ = ["Span", "annotate", "span", "start_span", "tracing"]

_ACTIVE: ContextVar["Span | None"] = ContextVar("repro_trace", default=None)


class Span:
    """One timed node of a trace tree.

    Entering the span (``with``) starts its monotonic clock and makes
    it the context's active span; exiting stops the clock and restores
    the parent.  ``meta`` is free-form (crack counts, cache hit flags);
    mutate it inside the ``with`` block via the bound name.
    """

    __slots__ = ("name", "meta", "children", "start_ns", "duration_ns",
                 "_token")

    def __init__(self, name: str, meta: dict | None = None) -> None:
        self.name = name
        self.meta = meta if meta is not None else {}
        self.children: list[Span] = []
        self.start_ns = 0
        self.duration_ns = 0
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        _ACTIVE.reset(self._token)
        self._token = None
        return False

    @property
    def duration_ms(self) -> float:
        """Elapsed wall time in milliseconds (0.0 while still open)."""
        return self.duration_ns / 1e6

    def walk(self, depth: int = 0):
        """Yield ``(depth, span)`` pairs depth-first (self included)."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _NoopSpan:
    """Shared do-nothing context manager for disabled instrumentation."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


#: The innermost open span of this context, or None: truthy exactly while
#: a trace is active, and a C call, so a hot path guards with it for free.
tracing = _ACTIVE.get


def start_span(name: str, **meta) -> Span:
    """A root (or explicitly nested) span — always real, never no-op.

    This is how tracing turns *on*: entering the returned span makes it
    the active span, so subsequent :func:`span` calls attach to it.  If
    a trace is already active the new root becomes a child of it, so
    traced statements inside traced transactions nest naturally.
    """
    root = Span(name, meta)
    parent = _ACTIVE.get()
    if parent is not None:
        parent.children.append(root)
    return root


def span(name: str, **meta):
    """A child span of the active trace, or a shared no-op when off.

    The no-op path is the hot path: one ContextVar read, no allocation.
    Only pass ``meta`` kwargs whose computation is free, and attach
    expensive meta inside the ``with`` block guarded by :func:`tracing`.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NOOP
    child = Span(name, meta)
    parent.children.append(child)
    return child


def annotate(**meta) -> None:
    """Merge ``meta`` into the innermost open span (no-op when off)."""
    active = _ACTIVE.get()
    if active is not None:
        active.meta.update(meta)
