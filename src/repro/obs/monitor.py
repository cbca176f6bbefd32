"""Health rendering: the ``repro obs watch`` dashboard and incident
formatting.

Pure presentation over :mod:`repro.obs.slo`: given an evaluator's
:class:`~repro.obs.slo.ObjectiveStatus` rows and a timeline, render a
terminal frame -- per-objective status glyphs, fast/slow burn rates,
unicode sparkline trends over the recent burn history, and the open
incident list.  The CLI (``repro obs watch``) renders one frame shape
for both of its sources: a fleet checkpoint's shard replay, or one
evaluation of a telemetry JSONL export read back as a merged registry
(:func:`~repro.obs.metrics.read_telemetry`; exports carry histogram
states, so latency objectives are judged on the same exact
over-budget counts either way).

Everything here is stdlib-only and side-effect free -- functions take
data, return strings -- so tests can pin frames without a terminal.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.obs.slo import IncidentTimeline, ObjectiveStatus, SloEvaluator

SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Status column glyph + label by severity (None = healthy).
SEVERITY_LABELS = {None: "ok", "warn": "WARN", "page": "PAGE"}


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render a value series as a fixed-width unicode sparkline.

    The newest ``width`` values are scaled against the series max (a
    burn of 0 is always the lowest glyph), so a flat healthy history
    reads as a flat low line and spikes stand out regardless of
    scale.
    """
    tail = [max(float(v), 0.0) for v in values][-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_CHARS[0] * len(tail)
    steps = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(int(round(v / top * steps)), steps)]
        for v in tail)


def format_statuses(statuses: Sequence[ObjectiveStatus]) -> str:
    """The per-objective table of one dashboard frame."""
    lines = [f"{'objective':<22} {'status':>6} {'burn(fast)':>10} "
             f"{'burn(slow)':>10} {'sli':>9}  trend"]
    for status in statuses:
        label = SEVERITY_LABELS[status.severity]
        lines.append(
            f"{status.objective.name:<22} {label:>6} "
            f"{status.burn_fast:>10.2f} {status.burn_slow:>10.2f} "
            f"{status.value:>9.4f}  {sparkline(status.history)}")
    return "\n".join(lines)


def _format_attribution(record: Dict, cell: str) -> str:
    """Cell rows (worst offenders, first three) and injected-event
    rows (the diagnosis hook) share the attribution list; render each
    in its own idiom."""
    rows = record.get("attribution", [])
    parts = [cell.format(cell=row["cell"],
                         scenario=row.get("scenario"))
             for row in rows if "cell" in row][:3]
    parts.extend(f"{row['event']}@slots "
                 f"{row['start_slot']}-{row['end_slot']}"
                 for row in rows if "event" in row)
    return ", ".join(parts)


def format_open_incidents(timeline: IncidentTimeline) -> str:
    open_incidents = timeline.open_incidents()
    if not open_incidents:
        return "no open incidents"
    lines = [f"{len(open_incidents)} open incident(s):"]
    for name in sorted(open_incidents):
        record = open_incidents[name]
        attribution = _format_attribution(
            record, "cell {cell} ({scenario})")
        lines.append(
            f"  [{record['severity']}] {record['incident']} "
            f"since t={record['at']:g} "
            f"burn {record['burn_fast']:.1f}/{record['burn_slow']:.1f}"
            + (f" -- {attribution}" if attribution else ""))
    return "\n".join(lines)


def format_anomalies(points: Sequence[Dict],
                     limit: int = 6) -> str:
    """The active-anomalies pane: the newest flagged detector points
    (see :meth:`repro.obs.anomaly.AnomalyMonitor.anomalies`)."""
    if not points:
        return "no anomalies flagged"
    lines = [f"{len(points)} anomalous point(s):"]
    for point in points[-limit:]:
        lines.append(
            f"  [{'/'.join(point['kinds'])}] {point['detector']} "
            f"at t={point['at']:g} value {point['value']:.4f} "
            f"z {point['z']:.1f} shift {point['shift']:.1f}")
    return "\n".join(lines)


def render_frame(title: str, evaluator: SloEvaluator,
                 anomalies: Optional[Sequence[Dict]] = None) -> str:
    """One full dashboard frame (statuses + open incidents + the
    anomalies pane when an anomaly feed is attached)."""
    lines = [
        title,
        "=" * len(title),
        format_statuses(evaluator.statuses()),
        "",
        format_open_incidents(evaluator.timeline),
    ]
    if anomalies is not None:
        lines.extend(["", format_anomalies(anomalies)])
    lines.append(
        f"timeline: {len(evaluator.timeline.records)} record(s), "
        f"digest {evaluator.timeline.digest()[:16]}")
    return "\n".join(lines)


def frame_payload(evaluator: SloEvaluator,
                  anomalies: Optional[Sequence[Dict]] = None) -> Dict:
    """Machine-readable frame (the ``watch --json`` shape CI pins)."""
    payload = {
        "spec": evaluator.spec.name,
        "digest": evaluator.timeline.digest(),
        "records": len(evaluator.timeline.records),
        "paging": evaluator.paging,
        "objectives": [
            {"objective": s.objective.name,
             "severity": s.severity,
             "burn_fast": s.burn_fast,
             "burn_slow": s.burn_slow,
             "value": s.value,
             "at": s.at}
            for s in evaluator.statuses()],
        "incidents": [dict(record)
                      for record in evaluator.timeline.records],
    }
    if anomalies is not None:
        payload["anomalies"] = [dict(point) for point in anomalies]
    return payload


# ---- incident timeline formatting ------------------------------------

def format_incidents(records: Sequence[Dict]) -> str:
    """Text table over timeline records (a burn a record lacks reads
    ``nan``)."""
    if not records:
        return "(no matching incident records)"
    lines = [f"{'seq':>4} {'t':>8} {'event':<8} {'sev':<5} "
             f"{'incident':<26} {'burn f/s':>13}  attribution"]
    for record in records:
        lines.append(
            f"{record['seq']:>4} {record['at']:>8g} "
            f"{record['event']:<8} {str(record['severity']):<5} "
            f"{str(record['incident']):<26} "
            f"{record.get('burn_fast', math.nan):>6.1f}/"
            f"{record.get('burn_slow', math.nan):<6.1f}"
            f"  {_format_attribution(record, 'cell {cell}:{scenario}')}")
    return "\n".join(lines)
