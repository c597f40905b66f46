"""Structured tracing for the testbed control path.

A single client operation travels through several layers — client →
mux → safety check → (deferred) propagation → outcome install — and the
interesting failures live in the joints between them.  :class:`Tracer`
threads a :class:`SpanContext` through that path so one announcement
yields one causally-linked span tree.

The design mirrors OpenTelemetry's vocabulary (trace id, span id, parent
link, attributes, events) but is deliberately tiny and deterministic:

* ids come from monotonic counters, not randomness, so two same-seed
  runs produce byte-identical traces;
* the clock is injectable — tests pass ``lambda: engine.now`` so span
  timestamps ride the simulated clock and ordering assertions are exact;
* the simulator is single-threaded, so the "current span" is a plain
  stack rather than a context-local.

Deferred work (the testbed marks prefixes dirty and converges later) is
linked by capturing the current :class:`SpanContext` at mark time and
passing it back as ``parent=`` at flush time — a follows-from link in
OpenTelemetry terms, rendered here as an ordinary parent edge.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple, Union

__all__ = ["SpanContext", "Span", "Tracer", "maybe_span"]

# Finished spans kept per tracer; a long-lived traced testbed would
# otherwise grow the list for as long as it runs.
_FINISHED_KEEP = 10_000


class SpanContext(NamedTuple):
    """Identity of one span: which trace it belongs to, and which span it is.

    A NamedTuple rather than a frozen dataclass: contexts are created on
    every span open (hot path) and a tuple is the cheapest immutable
    carrier."""

    trace_id: int
    span_id: int


class Span:
    """One timed operation within a trace.

    A hand-rolled slotted class rather than a dataclass: spans open on
    every instrumented control operation and their construction cost is
    charged against the telemetry overhead gate.  Identity equality;
    doubles as its own context manager (``__exit__`` ends the span on
    the tracer that opened it), so the traced path allocates exactly one
    object per span.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end",
        "attributes", "events", "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int] = None,
        start: float = 0.0,
        end: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
        events: Optional[List[Tuple[float, str]]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attributes: Dict[str, object] = (
            attributes if attributes is not None else {}
        )
        self.events: List[Tuple[float, str]] = (
            events if events is not None else []
        )
        self._tracer: Optional["Tracer"] = None

    @property
    def context(self) -> SpanContext:
        """Built on demand — ids live as plain ints on the span so the
        hot open path skips one tuple construction."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        if tracer is not None:  # inlined end_span: this is the hot exit
            self.end = tracer.clock()
            tracer.finished.append(self)
            stack = tracer._stack
            if stack and stack[-1] is self:
                stack.pop()
            else:  # pragma: no cover - out-of-order exit (rare)
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is self:
                        del stack[i]
                        break
        return False

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        return f"{self.name} [{self.start:.3f}..{self.end if self.end is not None else '...'}] {extra}".rstrip()


class Tracer:
    """Creates spans with deterministic ids and tracks the active one.

    ``clock`` defaults to wall time; deterministic runs pass the engine
    clock.  The most recent finished spans are kept in :attr:`finished`
    (append order = finish order, at most ``_FINISHED_KEEP`` of them;
    older ones are counted in :attr:`dropped`); :meth:`spans_of` /
    :meth:`tree` rebuild per-trace structure for assertions and timeline
    rendering.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or _time.monotonic
        self.finished: Deque[Span] = deque(maxlen=_FINISHED_KEEP)
        self._stack: List[Span] = []
        self._next_trace = 1
        self._next_span = 1

    @property
    def dropped(self) -> int:
        """Finished spans evicted from :attr:`finished`: every span opened
        is still open, kept, or dropped, so the hot exit counts nothing."""
        return self._next_span - 1 - len(self._stack) - len(self.finished)

    # -- span lifecycle -------------------------------------------------------

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def current_context(self) -> Optional[SpanContext]:
        span = self.current()
        return span.context if span else None

    def start_span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        **attributes: object,
    ) -> Span:
        """Open a span.  ``parent`` defaults to the currently-active span;
        pass an explicitly captured context to link deferred work."""
        return self._start(name, parent, attributes)

    def _start(
        self,
        name: str,
        parent: Optional[SpanContext],
        attributes: Dict[str, object],
    ) -> Span:
        """Hot-path core of :meth:`start_span`: takes the attribute dict
        by reference (no kwargs repacking) and inlines the parent lookup."""
        stack = self._stack
        parent_id: Optional[int]
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif stack:
            top = stack[-1]
            trace_id = top.trace_id
            parent_id = top.span_id
        else:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        span = Span(
            name,
            trace_id,
            self._next_span,
            parent_id,
            self.clock(),
            None,
            attributes,
        )
        span._tracer = self
        self._next_span += 1
        stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        span.end = self.clock()
        self.finished.append(span)
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order end (rare): remove by identity
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i]
                    break
        return span

    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        **attributes: object,
    ) -> Span:
        """Context manager opening (and on exit ending) one span."""
        return self._start(name, parent, attributes)

    def event(self, name: str) -> None:
        """Stamp a point event onto the active span (no-op without one)."""
        span = self.current()
        if span is not None:
            span.events.append((self.clock(), name))

    # -- queries --------------------------------------------------------------

    def spans_of(self, trace_id: int) -> List[Span]:
        """Finished spans of one trace, in start order (ties: span id)."""
        return sorted(
            (s for s in self.finished if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def trace_ids(self) -> List[int]:
        seen: List[int] = []
        for span in self.finished:
            if span.trace_id not in seen:
                seen.append(span.trace_id)
        return seen

    def find(self, name: str) -> List[Span]:
        return [s for s in self.finished if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [
            s
            for s in self.spans_of(span.trace_id)
            if s.parent_id == span.span_id
        ]

    def tree(self, trace_id: int) -> List[Tuple[int, Span]]:
        """``(depth, span)`` pairs in depth-first start order — the render
        the example scripts print and the tests assert over."""
        spans = self.spans_of(trace_id)
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        known = {span.span_id for span in spans}
        out: List[Tuple[int, Span]] = []

        def walk(parent_id: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent_id, []):
                out.append((depth, span))
                walk(span.span_id, depth + 1)

        walk(None, 0)
        # Spans whose parent never finished (shouldn't happen, but don't
        # silently drop data if it does) surface as roots.
        for span in spans:
            if span.parent_id is not None and span.parent_id not in known:
                out.append((0, span))
        return out

    def render(self, trace_id: int) -> str:
        lines = []
        for depth, span in self.tree(trace_id):
            duration = span.duration
            took = f" ({duration * 1000:.3f}ms)" if duration is not None else ""
            extra = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            lines.append(f"{'  ' * depth}{span.name}{took} {extra}".rstrip())
        return "\n".join(lines)


class _NoopSpan:
    """Shared do-nothing context manager for the untraced path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


def maybe_span(
    tracer: Optional[Tracer],
    name: str,
    parent: Optional[SpanContext] = None,
    **attributes: object,
) -> Union[Span, _NoopSpan]:
    """``tracer.span(...)`` when tracing is on, a no-op when it isn't.

    Instrumented call sites use this so the uninstrumented path costs one
    ``is None`` check and a shared empty context manager.
    """
    if tracer is None:
        return _NOOP
    return tracer._start(name, parent, attributes)
