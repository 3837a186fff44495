"""Cross-run drift detection: the engine behind ``repro diff``.

Compares two archived runs (:class:`repro.obs.store.ArchivedRun`)
section by section:

* **params** — fitted model parameters (``mu``, ``L``, ``Delta C``,
  ``rho``, ``r``) gate on *relative* drift: the reproduction is
  deterministic given a seed, so same-seed runs must agree bit-for-bit
  and even a 0.1% move means the code changed behaviour;
* **quality** — goodness-of-fit statistics (R², adjusted R², RMSE, mean
  relative error) gate on *absolute* drift, the scale reviewers read
  them at;
* **counters** — deterministic solver/simulator work counters (names
  ending in ``.calls`` / ``.solves`` / ``.iterations`` /
  ``.events_processed``, excluding ``perf.cache.*`` bookkeeping, the
  same family the benchmark gate watches) gate on relative growth;
* **wall** — wall-clock time is machine-dependent and *reported but not
  gated* unless explicitly requested (``gate_wall``).

The report renders as one readable table and carries a CI-friendly
exit code: nonzero iff any gated drift exceeds its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.store import ArchivedRun
from repro.util.tables import TextTable

#: Counter-name suffixes that measure deterministic solver/simulator work
#: (the family this module and the benchmark regression gate both gate).
GATED_SUFFIXES = (".calls", ".solves", ".iterations", ".events_processed")

#: Counter prefixes excluded from gating (cache bookkeeping varies
#: legitimately with process layout).
EXCLUDED_PREFIXES = ("perf.cache.",)


def is_gated_counter(key: str) -> bool:
    """Whether a counter key names deterministic work.

    ``key`` may carry ``{labels}``; the name before them decides.
    """
    base = key.split("{", 1)[0]
    return base.endswith(GATED_SUFFIXES) and \
        not base.startswith(EXCLUDED_PREFIXES)


@dataclass(frozen=True)
class DriftThresholds:
    """Gate configuration for :func:`compare_runs`.

    Defaults are deliberately tight for params/quality — identical-seed
    runs of this deterministic reproduction agree exactly, so any
    measurable drift is a behaviour change — and looser for counters
    (optimisations legitimately move work around within a budget).
    """

    params_rel: float = 1e-3
    quality_abs: float = 1e-3
    counters_rel: float = 0.25
    wall_rel: float = 0.5
    gate_wall: bool = False


@dataclass(frozen=True)
class DriftFinding:
    """One compared value: where it lives, both sides, and the verdict."""

    section: str  # "param" | "quality" | "counter" | "wall" | "structure"
    path: str
    a: float | None
    b: float | None
    drift: float  # relative (param/counter/wall) or absolute (quality)
    threshold: float
    gated: bool

    @property
    def exceeded(self) -> bool:
        return self.gated and (math.isnan(self.drift)
                               or self.drift > self.threshold)


@dataclass
class DriftReport:
    """Everything ``repro diff`` compared between two runs."""

    run_a: str
    run_b: str
    findings: list[DriftFinding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def exceeded(self) -> list[DriftFinding]:
        return [f for f in self.findings if f.exceeded]

    def exit_code(self) -> int:
        """0 when every gated drift is within threshold, else 1."""
        return 1 if self.exceeded else 0

    def render(self) -> str:
        """The human-readable drift table plus the verdict line."""
        parts = [f"== drift: {self.run_a} vs {self.run_b} =="]
        rows = [f for f in self.findings
                if f.section in ("param", "quality", "structure", "wall")
                or f.drift > 0 or f.exceeded]
        if rows:
            table = TextTable(
                ["section", "metric", "run A", "run B", "drift", "limit",
                 "verdict"],
                title="compared values (identical counters elided)")
            for f in sorted(rows, key=lambda f: (not f.exceeded, f.section,
                                                 f.path)):
                table.add_row([
                    f.section, f.path, _fmt(f.a), _fmt(f.b),
                    _fmt_drift(f), _fmt_limit(f),
                    "DRIFT" if f.exceeded else
                    ("info" if not f.gated else "ok"),
                ])
            parts.append(table.render())
        n_counters = sum(1 for f in self.findings if f.section == "counter")
        same = sum(1 for f in self.findings
                   if f.section == "counter" and f.drift == 0)
        parts.append(f"gated counters: {n_counters} compared, {same} "
                     "identical")
        parts.extend(f"note: {n}" for n in self.notes)
        exceeded = self.exceeded
        if exceeded:
            parts.append(f"DRIFT DETECTED: {len(exceeded)} value(s) over "
                         "threshold")
        else:
            parts.append("no drift: every gated value within threshold")
        return "\n\n".join(parts)


def _fmt(v: float | None) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}"


def _fmt_drift(f: DriftFinding) -> str:
    if math.isnan(f.drift):
        return "undefined"
    if f.section == "quality":
        return f"{f.drift:.2e} abs"
    return f"{100 * f.drift:.3g}%"


def _fmt_limit(f: DriftFinding) -> str:
    if not f.gated:
        return "(not gated)"
    if f.section == "quality":
        return f"{f.threshold:.2e} abs"
    return f"{100 * f.threshold:.3g}%"


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    denom = max(abs(a), abs(b))
    return abs(b - a) / denom if denom > 0 else 0.0


def _walk_sections(tree, prefix: str = ""):
    """Yield ``(section, path, value)`` for numeric leaves under any
    ``params`` / ``quality`` dict in a diagnostics tree.

    Per-point records (``fits``, ``validation``, ``error_attribution``)
    are deliberately not walked: their drift always surfaces through the
    scalar quality statistics, without per-point noise in the gate.
    """
    if not isinstance(tree, dict):
        return
    for key, value in tree.items():
        path = f"{prefix}/{key}" if prefix else str(key)
        if key in ("params", "quality") and isinstance(value, dict):
            section = "param" if key == "params" else "quality"
            for leaf, v in sorted(value.items()):
                if v is None or isinstance(v, (int, float)):
                    yield section, f"{path}/{leaf}", v
        elif key in ("fits", "validation", "error_attribution"):
            continue
        elif isinstance(value, dict):
            yield from _walk_sections(value, path)


def _gated_counters(metrics: dict[str, dict]) -> dict[str, float]:
    """The deterministic work counters of an archived metrics snapshot."""
    out: dict[str, float] = {}
    for key, summary in metrics.items():
        if not isinstance(summary, dict) or summary.get("kind") != "counter":
            continue
        if is_gated_counter(key):
            out[key] = float(summary.get("value", 0.0))
    return out


def compare_runs(a: ArchivedRun, b: ArchivedRun,
                 thresholds: DriftThresholds | None = None) -> DriftReport:
    """Compare two archived runs; see the module docstring for the gates."""
    th = thresholds or DriftThresholds()
    report = DriftReport(run_a=a.run_id, run_b=b.run_id)

    exps_a, exps_b = set(a.experiments), set(b.experiments)
    if exps_a != exps_b:
        report.findings.append(DriftFinding(
            section="structure", path="experiments",
            a=float(len(exps_a)), b=float(len(exps_b)),
            drift=float("nan"), threshold=0.0, gated=True))
        report.notes.append(
            f"experiment sets differ: only A {sorted(exps_a - exps_b)}, "
            f"only B {sorted(exps_b - exps_a)}; comparing the overlap")

    leaves_a = {(s, p): v for s, p, v in _walk_sections(a.diagnostics)}
    leaves_b = {(s, p): v for s, p, v in _walk_sections(b.diagnostics)}
    for (section, path) in sorted(set(leaves_a) | set(leaves_b)):
        va = leaves_a.get((section, path))
        vb = leaves_b.get((section, path))
        if va is None and vb is None:
            continue
        if va is None or vb is None:
            drift = float("nan")
        elif section == "param":
            drift = _rel(float(va), float(vb))
        else:
            drift = abs(float(vb) - float(va))
        report.findings.append(DriftFinding(
            section=section, path=path, a=va, b=vb, drift=drift,
            threshold=th.params_rel if section == "param"
            else th.quality_abs,
            gated=True))

    counters_a = _gated_counters(a.metrics)
    counters_b = _gated_counters(b.metrics)
    for key in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(key), counters_b.get(key)
        drift = float("nan") if va is None or vb is None else _rel(va, vb)
        report.findings.append(DriftFinding(
            section="counter", path=key, a=va, b=vb, drift=drift,
            threshold=th.counters_rel, gated=True))

    wall_a, wall_b = a.wall_time_s, b.wall_time_s
    if wall_a > 0 and wall_b > 0:
        report.findings.append(DriftFinding(
            section="wall", path="wall_time_s", a=wall_a, b=wall_b,
            drift=_rel(wall_a, wall_b), threshold=th.wall_rel,
            gated=th.gate_wall))
    return report


__all__ = [
    "DriftFinding",
    "DriftReport",
    "DriftThresholds",
    "compare_runs",
    "is_gated_counter",
    "GATED_SUFFIXES",
    "EXCLUDED_PREFIXES",
]
