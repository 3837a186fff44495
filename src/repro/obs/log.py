"""Structured JSON-lines logging correlated with runs and spans.

One :class:`StructuredLog` lives on each telemetry session, next to the
metrics registry and tracer.  Events are plain dicts with a fixed
envelope — ``schema``, ``ts_unix``, ``level``, ``event`` — plus bound
context (the experiment runner binds ``run_id``/``experiment`` for the
duration of a run) and free-form fields; the instrumentation helper
:func:`repro.obs.log_event` stamps the innermost open span on top.

Event names share the dotted-lowercase grammar of metric names and come
from the ``EVENT_*`` catalogue in :mod:`repro.obs.names` (the ``TEL004``
lint rule enforces the import at call sites).  The buffer is queryable
in-process and serialises to JSON lines, so degradations, retries and
worker crashes become greppable records instead of ad-hoc prints.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, TextIO

from repro.obs.metrics import check_metric_name

#: Schema version of the per-event envelope; bump on breaking changes.
LOG_SCHEMA = 1

LEVELS = ("debug", "info", "warning", "error")

#: Default in-session buffer capacity.  Long-running processes (``repro
#: serve``) emit events indefinitely; the buffer keeps the most recent
#: few thousand and counts the rest as dropped.
DEFAULT_LOG_BUFFER = 4096


def check_event_name(event: str) -> str:
    """Validate a dotted event name (same grammar as metric names)."""
    return check_metric_name(event)


class StructuredLog:
    """A bounded in-session buffer of structured events, with an optional sink.

    The buffer is a ring: once ``maxlen`` events are held, each new
    event evicts the oldest and increments :attr:`dropped`.  An open
    sink still receives every event — the cap bounds memory, not the
    on-disk record.
    """

    def __init__(self, clock: Callable[[], float] = time.time,
                 maxlen: int = DEFAULT_LOG_BUFFER) -> None:
        self._clock = clock
        self.maxlen = maxlen
        self.events: deque[dict] = deque(maxlen=maxlen)
        self.dropped = 0
        self._context: dict = {}
        self._sink: TextIO | None = None
        self._sink_path: str | None = None

    # -- context binding ------------------------------------------------------

    def bind(self, **context) -> "StructuredLog":
        """Attach fields (e.g. ``run_id``) to every subsequent event."""
        self._context.update(context)
        return self

    def unbind(self, *keys: str) -> "StructuredLog":
        for key in keys:
            self._context.pop(key, None)
        return self

    @property
    def context(self) -> dict:
        return dict(self._context)

    # -- emission -------------------------------------------------------------

    def emit(self, event: str, level: str = "info", **fields) -> dict:
        """Record one event; returns the full record."""
        check_event_name(event)
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; want one of "
                             f"{', '.join(LEVELS)}")
        record = {"schema": LOG_SCHEMA,
                  "ts_unix": round(self._clock(), 6),
                  "level": level,
                  "event": event}
        record.update(self._context)
        record.update(fields)
        if len(self.events) == self.maxlen:
            self.dropped += 1
        self.events.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, sort_keys=True) + "\n")
            self._sink.flush()
        return record

    # -- querying -------------------------------------------------------------

    def query(self, event: str | None = None, level: str | None = None,
              **fields) -> list[dict]:
        """Events matching an exact event name, level and/or field values."""
        out = []
        for record in self.events:
            if event is not None and record.get("event") != event:
                continue
            if level is not None and record.get("level") != level:
                continue
            if any(record.get(k) != v for k, v in fields.items()):
                continue
            out.append(record)
        return out

    # -- serialisation --------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in self.events)

    def write_jsonl(self, path: str) -> int:
        """Write the buffered events to ``path``; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self.events)

    # -- live sink ------------------------------------------------------------

    def open_sink(self, path: str) -> "StructuredLog":
        """Stream every subsequent event to ``path`` as it is emitted.

        Events already buffered are written first, so the file is a
        complete record regardless of when the sink was opened.
        """
        self.close_sink()
        self._sink = open(path, "w", encoding="utf-8")
        self._sink_path = path
        self._sink.write(self.to_jsonl())
        self._sink.flush()
        return self

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None
            self._sink_path = None


def parse_jsonl(text: str) -> list[dict]:
    """Parse JSON-lines text back into event records (blank lines skipped)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSONL line {lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"bad JSONL line {lineno}: not an object")
        out.append(record)
    return out
