"""Desim event-ordering rule (``SIM002``).

The discrete-event engine's determinism guarantee rests on invariants
enforced partly at runtime (``Simulator.schedule`` and ``Timeout``
reject negative delays) and partly by convention only.  This rule moves
the convention into CI: an event is immutable once enqueued — the heap
ordering and any already-registered waiter read ``time``/``value``/
``seq`` at trigger time, so mutating them after ``push``/``schedule``
reorders history.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import FileContext, Finding, Rule, register

#: Attributes that are frozen once an event is on the queue.
_FROZEN_EVENT_ATTRS = {"time", "value", "seq"}


@register
class EventMutationAfterEnqueueRule(Rule):
    """``SIM002``: events are frozen once pushed onto the queue.

    Within one function, an assignment to ``event.time``, ``event.value``
    or ``event.seq`` *after* that event was passed to ``.push(...)`` or
    ``.schedule(...)`` is flagged: the heap key and any registered waiter
    already captured the enqueued state.  Set the payload first, then
    enqueue.
    """

    id = "SIM002"
    name = "no-event-mutation-after-enqueue"
    description = ("mutating an event after it is enqueued desynchronises "
                   "the heap ordering from the event state")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in [n for n in ast.walk(ctx.tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
            enqueued: dict[str, int] = {}  # name -> line of enqueue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("push", "schedule") and \
                        node.args and isinstance(node.args[0], ast.Name):
                    name = node.args[0].id
                    line = node.lineno
                    if name not in enqueued or line < enqueued[name]:
                        enqueued[name] = line
            if not enqueued:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Assign, ast.AugAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr in _FROZEN_EVENT_ATTRS and \
                            isinstance(target.value, ast.Name):
                        name = target.value.id
                        if name in enqueued and \
                                node.lineno > enqueued[name]:
                            yield ctx.finding(
                                self, node,
                                f"`{name}.{target.attr}` assigned after "
                                f"`{name}` was enqueued (line "
                                f"{enqueued[name]}); set event state "
                                "before push/schedule")
