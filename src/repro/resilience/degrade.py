"""Graceful degradation: the event log of the exact→AMVA→bounds ladder.

Analytic-model reproductions are exactly where a degraded-but-bounded
answer beats an exception or a hang (PPT-Multicore and the
overlapping-kernel models make the same call): when a solver exhausts
its budgets, the caller falls to the next-coarser approximation —

    exact MVA  →  Schweitzer AMVA  →  operational (asymptotic) bounds

— and *records* the fall.  The ladder itself is the flow solver's
(``_ladder`` in :mod:`repro.runtime.flow`); this module keeps its
record.  Every retry/degradation lands in the process-local event log
(drained into ``ExperimentResult.notes`` by the experiment runner) and,
when telemetry is on, in the ``resilience.retries`` /
``resilience.degradations`` counters, so a degraded run is never
silently indistinguishable from a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import names as _names, state as _obs_state


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fall down the resilience ladder.

    ``action`` is ``"retry"`` (same solver, escalated damping),
    ``"degrade"`` (coarser solver) or ``"gave_up"`` (final stage
    accepted a non-converged iterate).
    """

    site: str
    action: str
    from_stage: str
    to_stage: str
    detail: str

    def render(self) -> str:
        """The human-readable note line surfaced in experiment results."""
        if self.action == "retry":
            move = f"retried {self.from_stage} -> {self.to_stage}"
        elif self.action == "degrade":
            move = f"degraded {self.from_stage} -> {self.to_stage}"
        else:
            move = f"accepted non-converged {self.to_stage} iterate"
        return f"resilience: {self.site} {move} ({self.detail})"


#: Process-local log of degradations since the last drain.
_EVENTS: list[DegradationEvent] = []


#: Structured-log event name per ladder action.
_LOG_EVENTS = {
    "retry": _names.EVENT_RESILIENCE_RETRY,
    "degrade": _names.EVENT_RESILIENCE_DEGRADED,
    "gave_up": _names.EVENT_RESILIENCE_GAVE_UP,
}


def record_event(event: DegradationEvent) -> DegradationEvent:
    """Append to the event log; mirror to telemetry counters and log.

    The structured-log record carries the full event (site, stages,
    detail) at ``warning`` level, correlated with the bound run_id —
    a degraded run is queryable, not just annotated.
    """
    _EVENTS.append(event)
    tel = _obs_state._active
    if tel is not None:
        if event.action == "retry":
            tel.metrics.counter(_names.RESILIENCE_RETRIES,
                                site=event.site).inc()
        else:
            tel.metrics.counter(_names.RESILIENCE_DEGRADATIONS,
                                site=event.site, to=event.to_stage).inc()
        tel.log.emit(
            _LOG_EVENTS.get(event.action, _names.EVENT_RESILIENCE_DEGRADED),
            level="warning", site=event.site, from_stage=event.from_stage,
            to_stage=event.to_stage, detail=event.detail)
    return event


def drain_events() -> list[DegradationEvent]:
    """Return all events recorded since the last drain, clearing the log."""
    events = list(_EVENTS)
    _EVENTS.clear()
    return events


def peek_events() -> list[DegradationEvent]:
    """The events recorded since the last drain, without clearing."""
    return list(_EVENTS)


def clear_events() -> None:
    """Discard any recorded-but-undrained events."""
    _EVENTS.clear()
