"""Hierarchical wall-clock tracing spans.

A :class:`Tracer` owns a stack of open spans; ``with tracer.span(...)``
nests correctly across any call depth, so the experiment runner, the
measurement substrate and the DES engine can each open spans without
knowing about one another.  The open-span stack lives in a
:mod:`contextvars` context variable, so concurrent asyncio tasks each
see their own stack, and work dispatched to a thread pool via
``contextvars.copy_context().run(...)`` parents its spans under the
dispatching request rather than orphaning them — the property the
serving layer relies on for per-request traces.  Finished trees export
two ways:

* :meth:`Tracer.to_dict` — nested JSON (span name, labels, start,
  duration, children), the format run manifests embed;
* :meth:`Tracer.chrome_trace` — Chrome trace-event format (``ph: "X"``
  complete events, microsecond timestamps), loadable in Perfetto or
  ``chrome://tracing``.

Timestamps are ``time.perf_counter`` relative to the tracer's epoch, so
traces are comparable within a run and meaningless across runs — run
manifests carry the wall-clock anchor instead.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time

# One context variable shared by all tracers: the stack is keyed by
# (tracer, span) tuples' owning tracer.  A per-Tracer ContextVar would
# leak (ContextVars are never collected once created), and in practice
# exactly one tracer is active per context, so a single module-level
# variable holding an immutable span tuple is both safe and cheap.
_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_span_stack", default=())


class Span:
    """One timed region; also the context manager that times it."""

    __slots__ = ("tracer", "name", "labels", "start", "duration", "children")

    def __init__(self, tracer: "Tracer", name: str, labels: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.labels = labels
        self.start: float = 0.0
        self.duration: float | None = None  # None while still open
        self.children: list["Span"] = []

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.start = tr._clock() - tr.epoch
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        if parent is not None and parent.tracer is tr:
            parent.children.append(self)
        else:
            with tr._lock:
                tr.roots.append(self)
        _STACK.set(stack + (self,))
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        self.duration = tr._clock() - tr.epoch - self.start
        stack = _STACK.get()
        if not stack or stack[-1] is not self:  # pragma: no cover - misuse guard
            innermost = stack[-1].name if stack else "<none>"
            raise RuntimeError(
                f"span nesting violated: closed {self.name!r} while "
                f"{innermost!r} was innermost")
        _STACK.set(stack[:-1])
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "start_s": self.start,
            "duration_s": self.duration,
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Owns the span stack and the finished span forest."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def span(self, name: str, **labels) -> Span:
        """A context manager timing one region nested under the current span."""
        return Span(self, name, labels)

    @property
    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        stack = _STACK.get()
        for span in reversed(stack):
            if span.tracer is self:
                return span
        return None

    def current_label(self, key: str):
        """The value of ``key`` on the innermost open span carrying it.

        Walks the open stack from the inside out, so a ``request_id``
        stamped on the request root is visible from any nested span —
        the hook structured logging uses to correlate events.
        """
        for span in reversed(_STACK.get()):
            if span.tracer is self and key in span.labels:
                return span.labels[key]
        return None

    def now(self) -> float:
        """Seconds since the epoch, read as :meth:`Span.__enter__` reads it."""
        return self._clock() - self.epoch

    def leaf(self, name: str, start: float, **labels) -> dict:
        """:meth:`Span.to_dict` of a childless span from ``start`` to now.

        ``start`` is a :meth:`now`.  No :class:`Span` is made, so the tree
        joins no forest or open-span stack: it has no parent and needs no
        :meth:`detach_root`.  A response-memo hit's trace is built so.
        """
        return {"name": name, "labels": labels, "start_s": start,
                "duration_s": self._clock() - self.epoch - start,
                "children": []}

    def detach_root(self, span: Span) -> bool:
        """Remove a finished root span from the forest.

        The serving layer detaches each request's root once the response
        is recorded, moving the tree into a bounded per-server ring so
        ``roots`` cannot grow without bound over a long-running process.
        Returns ``False`` if the span was not a root (already detached).
        """
        with self._lock:
            try:
                self.roots.remove(span)
                return True
            except ValueError:
                return False

    # -- export ---------------------------------------------------------------

    def walk(self):
        """Yield ``(span, depth)`` depth-first over the finished forest."""
        with self._lock:
            roots = list(self.roots)
        pending = [(s, 0) for s in reversed(roots)]
        while pending:
            span, depth = pending.pop()
            yield span, depth
            pending.extend((c, depth + 1) for c in reversed(span.children))

    def to_dict(self) -> dict:
        with self._lock:
            roots = list(self.roots)
        return {"spans": [s.to_dict() for s in roots]}

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete ``"X"`` events, µs units)."""
        pid = os.getpid()
        events = []
        for span, _depth in self.walk():
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.duration or 0.0) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": dict(span.labels),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)

    def aggregate(self) -> list[dict]:
        """Per-name totals over the forest, sorted by total time descending.

        ``self_s`` excludes time spent in child spans, so the sum of the
        ``self_s`` column equals the sum of root durations (no double
        counting) — the number a profile table should rank by.
        """
        rows: dict[str, dict] = {}
        for span, _depth in self.walk():
            dur = span.duration or 0.0
            child = sum(c.duration or 0.0 for c in span.children)
            row = rows.setdefault(
                span.name, {"name": span.name, "calls": 0,
                            "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += max(dur - child, 0.0)
        return sorted(rows.values(), key=lambda r: -r["total_s"])

    def phase_timings(self) -> dict[str, float]:
        """Total duration per top-level (root or root-child) span name."""
        with self._lock:
            roots = list(self.roots)
        out: dict[str, float] = {}
        for root in roots:
            spans = root.children or [root]
            for s in spans:
                out[s.name] = out.get(s.name, 0.0) + (s.duration or 0.0)
        return out


def count_spans(tree: dict | None) -> int:
    """Spans in a :meth:`Span.to_dict` tree; 0 for an untraced request."""
    if not tree:
        return 0
    return 1 + sum(count_spans(c) for c in tree.get("children", ()))
