"""Structured trace spans for the query engine and cluster runtime.

The paper's argument is built from *attribution* — which operator, which
subsystem, which resource — not end-to-end wall clocks. A
:class:`Tracer` records a nested tree of spans
(``query → pipeline → operator → morsel``) with perf-counter timestamps
and, for operator spans, a snapshot of the
:class:`~repro.engine.profile.OperatorWork` counters the performance
model consumes. Spans therefore reconcile *exactly* against the
WorkProfile: the tracer holds a reference to the very ``OperatorWork``
object an operator charged into and copies its counters when the query
finishes (not when the span closes — merge phases, morsel pre-skip
accounting, and the result-boundary gather all charge an operator after
its span has ended).

Tracing is opt-in. The default is the shared :data:`NULL_TRACER`, whose
``enabled`` flag is the single attribute check the hot path pays; every
mutation on a :class:`_NullSpan` is a no-op, so instrumented code never
branches on "am I traced" beyond that flag.

Thread-safety: span creation (parenting / root registration) takes the
tracer's lock; everything else mutates only the span itself, which is
owned by exactly one thread until it closes (morsel spans live on their
worker thread, shard spans on their pool thread).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "OperatorSpanScope",
    "Span",
    "Tracer",
    "iter_spans",
    "note",
]

class Span:
    """One traced interval: a kind ("query", "pipeline", "operator",
    "morsel", "shard"), perf-counter bounds, free-form attrs, point
    events, and child spans.

    ``work`` optionally references the OperatorWork this span observes;
    :meth:`Tracer.finalize` snapshots its counters into ``attrs`` and
    drops the reference.
    """

    __slots__ = (
        "kind", "name", "start_s", "end_s", "thread",
        "attrs", "events", "children", "work",
    )

    def __init__(self, kind: str, name: str, start_s: float, thread: int):
        self.kind = kind
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.thread = thread
        self.attrs: dict = {}
        self.events: list[dict] = []
        self.children: list["Span"] = []
        self.work = None

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.start_s
        return end - self.start_s

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append(
            {"name": name, "t_s": time.perf_counter(), "attrs": attrs}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.kind}:{self.name}, {self.duration_s * 1e3:.3f} ms)"


def iter_spans(root: Span):
    """Depth-first iteration over a span tree (pre-order, so operator
    spans come out in profile order)."""
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


class Tracer:
    """Collects span trees. One tracer may record many queries; each
    query execution contributes one root span to ``roots``."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def start(
        self,
        kind: str,
        name: str,
        parent: Span | None = None,
        start_s: float | None = None,
        work=None,
    ) -> Span:
        span = Span(
            kind,
            name,
            start_s if start_s is not None else time.perf_counter(),
            threading.get_ident(),
        )
        span.work = work
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        return span

    def finish(self, span: Span, end_s: float | None = None) -> None:
        if span.end_s is None:
            span.end_s = end_s if end_s is not None else time.perf_counter()

    @contextmanager
    def span(self, kind: str, name: str, parent: Span | None = None):
        span = self.start(kind, name, parent=parent)
        try:
            yield span
        finally:
            self.finish(span)

    def finalize(self, root: Span) -> None:
        """Close any still-open spans under ``root`` and snapshot the
        OperatorWork counters of operator spans into their attrs.

        Idempotent: a snapshotted span drops its work reference, so a
        second finalize (e.g. a driver finalizing a tree an inner
        executor already finalized) is a cheap no-op walk.
        """
        end = time.perf_counter()
        for span in iter_spans(root):
            if span.end_s is None:
                span.end_s = end
            work = span.work
            if work is not None:
                span.work = None
                span.attrs.update(work.counters())

    def reset(self) -> None:
        with self._lock:
            self.roots = []


class _NullSpan:
    """Inert span: every read is empty, every mutation a no-op."""

    __slots__ = ()

    kind = "null"
    name = ""
    start_s = 0.0
    end_s = 0.0
    thread = 0
    work = None
    events = ()
    children = ()
    duration_s = 0.0

    @property
    def attrs(self) -> dict:
        return {}

    def annotate(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: instrumented code checks ``enabled`` once
    and otherwise costs nothing. All methods return inert singletons."""

    enabled = False
    roots: tuple = ()

    def start(self, kind, name, parent=None, start_s=None, work=None) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span, end_s=None) -> None:
        pass

    def span(self, kind, name, parent=None) -> _NullSpan:
        return _NULL_SPAN  # usable as a context manager

    def finalize(self, root=None) -> None:
        pass

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()


def note(ctx, **attrs) -> None:
    """Annotate the operator span currently open on an execution context.

    Operators call this with whatever per-operator detail is worth
    seeing in a timeline (selectivity, group counts, run shapes). It is
    a no-op for contexts without span machinery — including the minimal
    contexts unit tests build around a bare WorkProfile — so operator
    code needs no tracing guard.
    """
    span = getattr(ctx, "op_span", None)
    if span is not None:
        span.attrs.update(attrs)


class OperatorSpanScope:
    """Tracks the at-most-one open operator span of an execution context.

    ``begin`` closes the previous operator span (operators within one
    context are sequential siblings) and opens a new one referencing the
    OperatorWork it charges into. ``extra`` attrs mark morsel-fragment
    operator spans so reconciliation can tell fragments (whose work is
    coalesced away by the profile merge) from profile-resident spans.
    """

    __slots__ = ("_tracer", "parent", "open_span", "_extra")

    def __init__(self, tracer: Tracer, parent: Span | None, **extra):
        self._tracer = tracer
        self.parent = parent
        self.open_span: Span | None = None
        self._extra = extra

    def begin(self, name: str, work) -> Span:
        if self.open_span is not None:
            self._tracer.finish(self.open_span)
        span = self._tracer.start("operator", name, parent=self.parent, work=work)
        if self._extra:
            span.attrs.update(self._extra)
        self.open_span = span
        return span

    def close(self) -> None:
        if self.open_span is not None:
            self._tracer.finish(self.open_span)
            self.open_span = None
