"""Declarative SLOs with multi-window burn-rate tracking.

An :class:`SLObjective` states a target over a service-level indicator
— availability ("99.9% of requests succeed") or latency ("99% of
requests answer under 250 ms").  The :class:`SLOTracker` reads the
server's two rolling request rings (:mod:`repro.obs.window`) and
evaluates **burn rates**: how fast the error budget (``1 - target``)
is being consumed, normalised so a burn rate of 1.0 exactly exhausts
the budget over the SLO period.

Degradation follows the multi-window, multi-burn-rate pattern from the
SRE literature: the tracker flips an objective to ``degraded`` only
when both a short window (1 m, fast to react) and a confirmation
window (5 m, immune to single-bucket blips) burn faster than
:data:`FAST_BURN`.  Recovery is the same check relaxing — once clean
traffic refills the confirmation window the objective reports ``ok``
again.  Transitions emit ``slo.degraded`` / ``slo.recovered``
structured-log events and mirror into ``serve.slo.*`` gauges when a
telemetry session is active.

Reads take an explicit ``now`` on the rings' clock, so tests drive a
fake clock through a full degrade/recover cycle without sleeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import HIST_MAX_EXP, HIST_MIN_EXP
from repro.obs.window import RollingHistogram

#: Schema version of the ``slo`` block served by ``/healthz``.
SLO_SCHEMA = 1

#: Fast-burn threshold: consuming the error budget 14.4× faster than
#: sustainable exhausts a 30-day budget in ~2 days — the classic page
#: -worthy burn rate.
FAST_BURN = 14.4

#: The sub-windows burn rates are evaluated over: (label, use the slow
#: ring?, most-recent-bucket restriction).  1 m is the 60×1 s ring;
#: 5 m and 1 h are carved out of the 60×60 s ring.
_WINDOWS = (("1m", False, None), ("5m", True, 5), ("1h", True, None))


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``kind`` is ``"availability"`` (a request is bad if it errored) or
    ``"latency"`` (a request is bad if it took ``threshold_s`` or
    longer, regardless of status).  ``target`` is the good fraction the
    service promises, e.g. ``0.999``.
    """

    name: str
    kind: str
    target: float
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target {self.target} must be in (0, 1)")
        if self.kind == "latency":
            # Only a histogram bin's lower edge lets the windowed bins
            # count slow requests exactly.
            mantissa, e = math.frexp(self.threshold_s or 0.0)
            if mantissa != 0.5 or not HIST_MIN_EXP < e <= HIST_MAX_EXP:
                raise ValueError(
                    f"latency threshold_s {self.threshold_s!r} must be a "
                    f"power of two in [2**{HIST_MIN_EXP}, "
                    f"2**{HIST_MAX_EXP - 1}]")

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target tolerates."""
        return 1.0 - self.target

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "target": self.target,
                "threshold_s": self.threshold_s}


#: The served model answers warm predictions in single-digit
#: milliseconds; 250 ms is an order-of-magnitude guard band that only a
#: genuine regression (or a cold sweep storm) can breach.
_LATENCY_THRESHOLD_S = 0.25

OBJECTIVES = (
    SLObjective(name="availability", kind="availability", target=0.999),
    SLObjective(name="latency", kind="latency", target=0.99,
                threshold_s=_LATENCY_THRESHOLD_S),
)


class SLOTracker:
    """Evaluates burn rates over the server's request windows.

    ``rings`` are the server's (fast, slow) request rings, each holding
    request durations and 5xx counts; the tracker keeps none of its own.
    """

    def __init__(self,
                 rings: tuple[RollingHistogram, RollingHistogram]) -> None:
        self._rings = rings
        self._degraded: set[str] = set()

    # -- evaluation -----------------------------------------------------------

    def _window(self, slow: bool, last: int | None,
                now: float) -> tuple[int, dict[str, int]]:
        """(requests, bad requests per objective kind) in one window."""
        total, too_slow, errors = self._rings[slow].counts(
            _LATENCY_THRESHOLD_S, now, last)
        return total, {"availability": errors, "latency": too_slow}

    def state(self, now: float) -> dict:
        """The full SLO block: per-objective windows, burns and status.

        Pure read — no transition side effects; :meth:`evaluate` is the
        mutating entry point surfaces should call.
        """
        counts = {label: self._window(slow, last, now)
                  for label, slow, last in _WINDOWS}
        objectives = {}
        degraded = []
        for obj in OBJECTIVES:
            windows = {label: _burn(obj, total, bad[obj.kind])
                       for label, (total, bad) in counts.items()}
            is_degraded = (
                windows["1m"]["burn_rate"] >= FAST_BURN
                and windows["5m"]["burn_rate"] >= FAST_BURN)
            if is_degraded:
                degraded.append(obj.name)
            objectives[obj.name] = {
                **obj.to_dict(),
                "budget": round(obj.budget, 6),
                "windows": windows,
                "status": "degraded" if is_degraded else "ok",
            }
        return {
            "slo_schema": SLO_SCHEMA,
            "status": "degraded" if degraded else "ok",
            "degraded_objectives": degraded,
            "fast_burn_threshold": FAST_BURN,
            "objectives": objectives,
        }

    def evaluate(self, now: float) -> dict:
        """Compute :meth:`state` and emit transition events/gauges.

        Telemetry mirroring is lazy-imported and session-guarded, so the
        tracker works standalone (and in tests) with telemetry disabled.
        """
        state = self.state(now)
        from repro import obs
        from repro.obs import names
        newly_degraded = set(state["degraded_objectives"])
        for name in sorted(newly_degraded - self._degraded):
            win = state["objectives"][name]["windows"]
            obs.log_event(
                names.EVENT_SLO_DEGRADED, level="warning", objective=name,
                burn_1m=win["1m"]["burn_rate"], burn_5m=win["5m"]["burn_rate"])
        for name in sorted(self._degraded - newly_degraded):
            obs.log_event(names.EVENT_SLO_RECOVERED, objective=name)
        self._degraded = newly_degraded
        for name, payload in state["objectives"].items():
            obs.gauge(names.SERVE_SLO_DEGRADED,
                      1.0 if payload["status"] == "degraded" else 0.0,
                      objective=name)
            for label, win in payload["windows"].items():
                obs.gauge(names.SERVE_SLO_BURN_RATE, win["burn_rate"],
                          objective=name, window=label)
        return state


def _burn(obj: SLObjective, total: int, bad: int) -> dict:
    bad_fraction = (bad / total) if total else 0.0
    return {
        "total": int(total),
        "bad": int(bad),
        "bad_fraction": round(bad_fraction, 6),
        "burn_rate": round(bad_fraction / obj.budget, 3),
    }
