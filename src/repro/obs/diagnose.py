"""Incident root-cause attribution: from "what fired" to "why".

The SLO layer answers *whether* a fleet is healthy; this module
answers the operator's next question.  Given the shards of a fleet
campaign (live results or a checkpoint), :func:`diagnose_fleet` joins
every signal the stack already records -- the scenario event
timelines captured into shard results, per-cell SLA accounting,
fallback/admission counter taxonomies, per-stage serve latency
histograms, streaming anomaly points -- against the campaign's SLO
breaches, and emits a :class:`DiagnosisReport`: a ranked list of
scored :class:`Hypothesis` rows (``event:latency_surge@slots 2-6
(transport_brownout) -> slice_latency_ms page``), each with its
evidence attached.

Determinism contract
    :meth:`DiagnosisReport.digest` must be bit-identical across shard
    counts and checkpoint resume, so it covers only projections that
    are pure functions of the campaign's *final* state: the fleet /
    snapshot / spec identity, per-objective breaches judged on the
    final cumulative merged telemetry (not the granularity-dependent
    burn-rate timeline), and hypotheses derived from final counter
    totals, the full cell list, and the declarative event timelines.
    Everything granularity- or wall-clock-dependent -- anomaly point
    series, the incident timeline's own digest, per-stage wall
    means -- still travels on the report for operators, but under
    fields (or ``"wall"`` evidence sub-dicts) the digest skips.

Layering: this module is part of :mod:`repro.obs` (stdlib + numpy
only) and therefore never imports :mod:`repro.fleet`.  Shard results
are duck-typed (``.shard`` / ``.cells`` / ``.telemetry()`` /
``.events``); the fleet coordinator drives its live SLO evaluation
through :class:`ShardReplay` *from here*, and the tagged-JSON
registration of the report dataclasses lives in
:mod:`repro.runtime.serialization`, both downward imports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.anomaly import AnomalyMonitor
from repro.obs.metrics import Telemetry, parse_key
from repro.obs.slo import IncidentTimeline, SloEvaluator, SloObjective, \
    SloSpec

DIAGNOSIS_FORMAT = 1

#: Hypothesis kinds, in tie-break rank order.
HYPOTHESIS_KINDS = ("event", "fallback", "snapshot", "stage")

#: How strongly each injected event kind explains each objective kind.
#: Rows sum to no particular total -- these are priors, sharpened by
#: the support term (the fraction of the fleet's cells running the
#: scenario that carries the event).
EVENT_AFFINITY: Dict[str, Dict[str, float]] = {
    "latency_surge":    {"latency": 1.00, "ratio": 0.45, "mean": 0.40},
    "link_degradation": {"latency": 0.90, "ratio": 0.70, "mean": 0.60},
    "background_load":  {"latency": 0.80, "ratio": 0.60, "mean": 0.55},
    "slice_arrival":    {"latency": 0.50, "ratio": 0.60, "mean": 0.70},
}
#: Prior for event kinds this table has never heard of.
DEFAULT_AFFINITY = 0.25

#: Evidence keys whose values are wall-clock (or otherwise volatile)
#: and are therefore scrubbed from the digest projection.
VOLATILE_EVIDENCE_KEY = "wall"

#: Incident-row keys that enter the digest (all pure functions of the
#: final merged telemetry).
INCIDENT_DIGEST_FIELDS = ("objective", "kind", "instrument",
                          "severity", "burn", "value")


@dataclass(frozen=True)
class Hypothesis:
    """One scored explanation of one breached objective.

    ``evidence`` rows are plain dicts tagged with a ``kind``
    (``scenario-event`` / ``cell`` / ``counter`` / ``rate`` /
    ``snapshot`` / ``stage``); any wall-clock detail nests under the
    row's ``"wall"`` key, which the report digest scrubs.
    """

    incident: str                   # objective name it explains
    kind: str                       # one of HYPOTHESIS_KINDS
    label: str
    score: float
    evidence: Tuple[Dict, ...] = ()


@dataclass(frozen=True)
class DiagnosisReport:
    """The full diagnosis of one campaign (see module docstring for
    which fields the digest covers)."""

    fleet: str
    slo: str
    mode: str                       # "checkpoint" | "telemetry"
    snapshot_ref: str
    snapshot_digest: str
    #: Final-state breaches (digest-covered projection fields only).
    incidents: Tuple[Dict, ...]
    #: Ranked, highest score first.
    hypotheses: Tuple[Hypothesis, ...]
    #: Resolved scenario event rows (``scenario`` key added), for
    #: display; the digest already sees them through the hypotheses.
    events: Tuple[Dict, ...] = ()
    #: Anomaly points from the replay -- granularity-dependent (a
    #: 1-shard replay is a single step), digest-excluded.
    anomalies: Tuple[Dict, ...] = ()
    #: Burn-rate incident episodes from the timeline replay --
    #: granularity-dependent, digest-excluded.
    episodes: Tuple[Dict, ...] = ()
    #: The replayed :meth:`IncidentTimeline.digest` -- deterministic
    #: per shard count but *not* across shard counts, digest-excluded.
    timeline_digest: str = ""

    def digest(self) -> str:
        """SHA-256 over the shard-count-invariant projection."""
        sha = hashlib.sha256()
        head = [DIAGNOSIS_FORMAT, self.fleet, self.slo, self.mode,
                self.snapshot_ref, self.snapshot_digest]
        sha.update(json.dumps(head).encode("utf-8"))
        for row in self.incidents:
            projection = {key: _rounded(row.get(key))
                          for key in INCIDENT_DIGEST_FIELDS}
            sha.update(json.dumps(
                projection, sort_keys=True).encode("utf-8"))
        for hypothesis in self.hypotheses:
            evidence = [_scrub(row) for row in hypothesis.evidence]
            sha.update(json.dumps(
                [hypothesis.incident, hypothesis.kind,
                 hypothesis.label, _rounded(hypothesis.score),
                 evidence], sort_keys=True).encode("utf-8"))
        return sha.hexdigest()


def _rounded(value):
    """Round floats (recursively) the way the timeline digest does."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _scrub(row: Dict) -> Dict:
    """An evidence row's digest projection: volatile subtree dropped,
    floats rounded."""
    return {key: _rounded(value) for key, value in sorted(row.items())
            if key != VOLATILE_EVIDENCE_KEY}


# ---- shared fleet helpers (imported by the coordinator) --------------

def worst_cells(cells: Sequence, limit: int = 3) -> List[Dict]:
    """The worst cells merged so far, as incident attribution rows.

    Deterministic fields only (``p50/p99_latency_ms`` are wall-clock
    measurements and would unpin the timeline digest); floats rounded
    the way the digest rounds top-level floats, since attribution rows
    nest below it.
    """
    worst = sorted(cells,
                   key=lambda c: (-c.violation_rate, c.cell))[:limit]
    return [{"cell": stats.cell, "scenario": stats.scenario,
             "violation_rate": round(stats.violation_rate, 9),
             "fallbacks": stats.fallbacks} for stats in worst]


def make_event_hook(events_by_scenario: Dict[str, Sequence[Dict]]):
    """An :attr:`SloEvaluator.attribution_hook` that appends the
    injected-event windows of every scenario named in a record's
    cell attribution.

    ``events_by_scenario`` is read at emission time, so callers may
    pass a mapping they keep filling as shards land.  Rows carry
    deterministic fields only -- they enter the timeline digest.
    """
    def hook(objective: SloObjective, record: Dict) -> List[Dict]:
        rows: List[Dict] = []
        seen = set()
        for attribution in record.get("attribution", []):
            scenario = attribution.get("scenario")
            if scenario is None or scenario in seen:
                continue
            seen.add(scenario)
            for event in events_by_scenario.get(scenario, ()):
                rows.append({"scenario": scenario,
                             "event": event["kind"],
                             "start_slot": event["start_slot"],
                             "end_slot": event["end_slot"]})
        return rows
    return hook


class ShardReplay:
    """Incremental shard-order replay: the one driver behind the live
    coordinator and every offline checkpoint reader.

    Shard *completion* order is nondeterministic (``as_completed``
    over a process pool), so :meth:`offer` holds a result back until
    every lower shard index has arrived and evaluates only the
    contiguous prefix: shard k's evaluation point is the cumulative
    merge of shards 0..k at logical time ``k + 1``, with worst-cell
    attribution plus the event-window hook.  Evaluating across a hole
    would hand time ``k + 1`` a registry no uninterrupted run ever
    merged, so a killed run's checkpoint replays to exactly what the
    live run judged -- a prefix of the complete run's timeline -- and
    the incident timeline (and its digest) is a pure function of the
    campaign.  ``results`` rows are duck-typed (``.shard`` /
    ``.cells`` / ``.telemetry()`` / optional ``.events``);
    pre-event-capture checkpoints simply contribute no event rows.
    """

    def __init__(self, slo: Optional[SloSpec] = None,
                 timeline: Optional[IncidentTimeline] = None,
                 monitor: Optional[AnomalyMonitor] = None) -> None:
        self.telemetry = Telemetry()
        self.cells: List = []
        self.events: Dict[str, Tuple[Dict, ...]] = {}
        self.monitor = monitor
        self.evaluator = None if slo is None else SloEvaluator(
            slo, timeline=timeline,
            attribution_hook=make_event_hook(self.events))
        #: Offered shards waiting for shard ``next_shard`` to land.
        self.held: Dict[int, object] = {}
        self.next_shard = 0

    def offer(self, result) -> List[Dict]:
        """Take one completed shard; evaluate whatever prefix is now
        contiguous and return the incident records that emitted."""
        self.held[result.shard] = result
        emitted: List[Dict] = []
        while self.next_shard in self.held:
            shard = self.held.pop(self.next_shard)
            self.next_shard += 1
            self.telemetry.merge(shard.telemetry())
            self.cells.extend(shard.cells)
            for name, rows in getattr(shard, "events", {}).items():
                self.events.setdefault(
                    name, tuple(dict(row) for row in rows))
            at = float(self.next_shard)
            if self.evaluator is not None:
                emitted.extend(self.evaluator.observe(
                    self.telemetry, at,
                    attribution=worst_cells(self.cells)))
            if self.monitor is not None:
                self.monitor.observe(self.telemetry, at)
        return emitted


def replay_shards(results: Iterable,
                  slo: Optional[SloSpec] = None,
                  timeline: Optional[IncidentTimeline] = None,
                  monitor: Optional[AnomalyMonitor] = None
                  ) -> ShardReplay:
    """Offer every result (any order) to a fresh :class:`ShardReplay`
    and return it -- the offline form of what ``run_fleet`` does
    live."""
    replay = ShardReplay(slo, timeline=timeline, monitor=monitor)
    for result in results:
        replay.offer(result)
    return replay


# ---- judging the final state -----------------------------------------

def final_incidents(spec: SloSpec, telemetry: Telemetry) -> List[Dict]:
    """Per-objective breaches judged on the final cumulative SLI.

    This is the shard-count-invariant notion of "incident" the digest
    pins: the whole-campaign SLI against each objective's allowance
    (the burn a one-observation evaluation would report).  The
    windowed timeline view -- which can open and resolve along the
    way -- travels separately as ``episodes``.
    """
    rows: List[Dict] = []
    for objective in spec.objectives:
        sli = objective.series().overall(telemetry)
        burn = sli / objective.allowance
        severity = objective.severity(burn, burn)
        if severity is None:        # healthy, or no traffic at all
            continue
        rows.append({"objective": objective.name,
                     "kind": objective.kind,
                     "instrument": objective.instrument,
                     "severity": severity,
                     "burn": round(burn, 9),
                     "value": round(sli, 9)})
    return rows


def _timeline_episodes(records: Sequence[Dict]) -> List[Dict]:
    """Summarise timeline records into per-incident episode rows
    (volatile: the at axis depends on checkpoint granularity)."""
    episodes: Dict[str, Dict] = {}
    order: List[str] = []
    for record in records:
        incident = record.get("incident")
        if incident is None:
            continue
        row = episodes.get(incident)
        if row is None:
            row = episodes[incident] = {
                "incident": incident,
                "objective": record["objective"],
                "severity": record["severity"],
                "opened_at": record["at"],
                "last_at": record["at"],
                "resolved": False,
                "records": 0,
            }
            order.append(incident)
        row["records"] += 1
        row["last_at"] = record["at"]
        if record["event"] == "resolve":
            row["resolved"] = True
        elif record["severity"] == "page":
            row["severity"] = "page"
    return [episodes[incident] for incident in order]


# ---- hypothesis generation -------------------------------------------

def _counter_value(telemetry: Telemetry, key: str) -> float:
    counter = telemetry.find_counter(key)
    return counter.value if counter is not None else 0.0


def _labeled_counter_rows(telemetry: Telemetry, name: str
                          ) -> List[Dict]:
    """Evidence rows for every labeled variant of counter ``name`` --
    the cause/app taxonomy the serve/loadgen layer records."""
    rows: List[Dict] = []
    for key, counter in sorted(telemetry.counters().items()):
        base, labels = parse_key(key)
        if base == name and labels:
            rows.append({"kind": "counter", "instrument": key,
                         "value": round(counter.value, 9)})
    return rows


def _event_hypotheses(incident: Dict, cells: Sequence,
                      events: Dict[str, Sequence[Dict]],
                      telemetry: Telemetry) -> List[Hypothesis]:
    """One hypothesis per injected event, scored by the affinity of
    the event kind for the breached objective kind, sharpened by the
    fraction of the fleet running the carrying scenario."""
    hypotheses: List[Hypothesis] = []
    total_cells = len(cells)
    if total_cells == 0:
        return hypotheses
    for scenario in sorted(events):
        scenario_cells = [stats for stats in cells
                          if stats.scenario == scenario]
        if not scenario_cells:
            continue
        support = len(scenario_cells) / total_cells
        cell_rows = worst_cells(scenario_cells, limit=3)
        for event in events[scenario]:
            affinity = EVENT_AFFINITY.get(event["kind"], {}).get(
                incident["kind"], DEFAULT_AFFINITY)
            score = round(affinity * (0.6 + 0.4 * support), 9)
            label = (f"event:{event['kind']}"
                     f"@slots {event['start_slot']}-"
                     f"{event['end_slot']} ({scenario}) -> "
                     f"{incident['instrument']} "
                     f"{incident['severity']}")
            evidence: List[Dict] = [{
                "kind": "scenario-event",
                "scenario": scenario,
                "event": event["kind"],
                "start_slot": event["start_slot"],
                "end_slot": event["end_slot"],
                "cells": len(scenario_cells),
                "params": dict(event.get("params", {})),
            }]
            evidence.extend(dict(row, kind="cell")
                            for row in cell_rows)
            if incident["kind"] == "ratio":
                evidence.extend(_labeled_counter_rows(
                    telemetry, incident["instrument"]))
            hypotheses.append(Hypothesis(
                incident=incident["objective"], kind="event",
                label=label, score=score,
                evidence=tuple(evidence)))
    return hypotheses


def _fallback_hypothesis(incident: Dict, telemetry: Telemetry
                         ) -> Optional[Hypothesis]:
    """The Eq. 8 safe-fallback storm explanation.

    Weighted up when the breached objective *is* the fallback rate,
    down otherwise -- a fallback storm shows up in latency breaches
    only indirectly (pi_b decisions are safe but conservative)."""
    decisions = _counter_value(telemetry, "decisions")
    fallbacks = _counter_value(telemetry, "fallbacks")
    if decisions <= 0 or fallbacks <= 0:
        return None
    rate = fallbacks / decisions
    weight = 0.9 if incident["instrument"] == "fallbacks" else 0.5
    score = round(min(1.0, 4.0 * rate) * weight, 9)
    evidence: List[Dict] = [
        {"kind": "rate", "instrument": "fallbacks/decisions",
         "value": round(rate, 9)},
        {"kind": "counter", "instrument": "fallbacks",
         "value": round(fallbacks, 9)},
        {"kind": "counter", "instrument": "decisions",
         "value": round(decisions, 9)},
    ]
    evidence.extend(_labeled_counter_rows(telemetry, "fallbacks"))
    label = (f"fallback:eq8 safe-fallback at {rate:.3f} of decisions "
             f"-> {incident['instrument']} {incident['severity']}")
    return Hypothesis(incident=incident["objective"], kind="fallback",
                      label=label, score=score,
                      evidence=tuple(evidence))


def _snapshot_hypothesis(incident: Dict, telemetry: Telemetry,
                         snapshot_ref: str, snapshot_digest: str
                         ) -> Optional[Hypothesis]:
    """The "bad snapshot" explanation: suspicion scales with the
    fallback rate (a regressed policy trips Eq. 8 fleet-wide) but is
    capped below a supported event hypothesis -- lineage is listed,
    not presumed guilty."""
    if not snapshot_ref:
        return None
    decisions = _counter_value(telemetry, "decisions")
    rate = (_counter_value(telemetry, "fallbacks") / decisions
            if decisions > 0 else 0.0)
    score = round(min(0.45, 0.05 + 2.0 * rate), 9)
    label = (f"snapshot:{snapshot_ref}@{snapshot_digest[:12]} serving "
             f"regression -> {incident['instrument']} "
             f"{incident['severity']}")
    evidence = ({"kind": "snapshot", "ref": snapshot_ref,
                 "digest": snapshot_digest},
                {"kind": "rate",
                 "instrument": "fallbacks/decisions",
                 "value": round(rate, 9)})
    return Hypothesis(incident=incident["objective"], kind="snapshot",
                      label=label, score=score, evidence=evidence)


def _stage_hypothesis(incident: Dict, rows: Sequence[Dict]
                      ) -> Optional[Hypothesis]:
    """The serve-path explanation: where decision wall time goes.

    ``rows`` are ``stage`` evidence rows; their means are wall-clock,
    so they ride in each row's ``"wall"`` sub-dict and the score is a
    fixed low prior -- the serve path cannot move the *simulated*
    latency SLIs, it can only corroborate.
    """
    if not rows or incident["kind"] not in ("latency", "mean"):
        return None
    label = ("stage:serve-path latency profile (wall-clock evidence) "
             f"-> {incident['instrument']} {incident['severity']}")
    return Hypothesis(incident=incident["objective"], kind="stage",
                      label=label, score=0.25, evidence=tuple(rows))


def _stage_rows(telemetry: Telemetry) -> List[Dict]:
    """Stage evidence from the merged ``stage_<name>_ms`` histograms."""
    histograms = telemetry.histograms()
    return [{"kind": "stage",
             "stage": key[len("stage_"):-len("_ms")],
             "count": histograms[key].count,
             "wall": {"mean_ms": histograms[key].mean,
                      "total_ms": histograms[key].total}}
            for key in sorted(histograms)
            if key.startswith("stage_") and key.endswith("_ms")]


def rank_hypotheses(hypotheses: Iterable[Hypothesis]
                    ) -> Tuple[Hypothesis, ...]:
    """Highest score first; ties break by kind order, then label."""
    order = {kind: i for i, kind in enumerate(HYPOTHESIS_KINDS)}
    return tuple(sorted(
        hypotheses,
        key=lambda h: (-h.score, order.get(h.kind, len(order)),
                       h.incident, h.label)))


def _judge(slo: SloSpec, telemetry: Telemetry, cells: Sequence = (),
           events: Optional[Dict[str, Sequence[Dict]]] = None,
           snapshot_ref: str = "", snapshot_digest: str = ""
           ) -> Tuple[Tuple[Dict, ...], Tuple[Hypothesis, ...]]:
    """Final-state breaches and their ranked hypotheses: the one judge
    behind both entry points."""
    incidents = final_incidents(slo, telemetry)
    stage_rows = _stage_rows(telemetry)
    hypotheses: List[Hypothesis] = []
    for incident in incidents:
        hypotheses.extend(_event_hypotheses(
            incident, cells, events or {}, telemetry))
        hypotheses.extend(
            hypothesis for hypothesis in (
                _fallback_hypothesis(incident, telemetry),
                _snapshot_hypothesis(incident, telemetry,
                                     snapshot_ref, snapshot_digest),
                _stage_hypothesis(incident, stage_rows))
            if hypothesis is not None)
    return tuple(incidents), rank_hypotheses(hypotheses)


# ---- entry points ----------------------------------------------------

def diagnose_fleet(results: Iterable,
                   slo: SloSpec,
                   fleet: str = "",
                   snapshot_ref: str = "",
                   snapshot_digest: str = "") -> DiagnosisReport:
    """Diagnose a fleet campaign from its shard results.

    ``results`` comes from a live ``run_fleet`` (via the checkpoint)
    or ``FleetCheckpoint.results.values()``; the replay re-derives the
    incident timeline and anomaly series exactly as the live run saw
    them, then judges breaches and hypotheses on the final state (see
    module docstring for what the digest covers).
    """
    monitor = AnomalyMonitor()
    state = replay_shards(results, slo=slo, monitor=monitor)
    incidents, hypotheses = _judge(slo, state.telemetry, state.cells,
                                   state.events, snapshot_ref,
                                   snapshot_digest)
    event_rows = tuple(
        {"scenario": scenario, **dict(row)}
        for scenario in sorted(state.events)
        for row in state.events[scenario])
    evaluator = state.evaluator
    return DiagnosisReport(
        fleet=fleet,
        slo=slo.name,
        mode="checkpoint",
        snapshot_ref=snapshot_ref,
        snapshot_digest=snapshot_digest,
        incidents=incidents,
        hypotheses=hypotheses,
        events=event_rows,
        anomalies=tuple(monitor.anomalies()),
        episodes=tuple(_timeline_episodes(
            evaluator.timeline.records)),
        timeline_digest=evaluator.timeline.digest())


def diagnose_telemetry(telemetry: Telemetry, slo: SloSpec,
                       label: str = "") -> DiagnosisReport:
    """Diagnose a telemetry export registry
    (:func:`~repro.obs.metrics.read_telemetry`) with the judge
    :func:`diagnose_fleet` runs after its replay.

    An export records no cells, scenario events or snapshot lineage,
    and it is one evaluation rather than a shard sequence, so the report
    carries no event or snapshot hypotheses, anomaly points or timeline
    episodes -- breaches, fallback and serve-stage evidence are judged
    exactly as on a checkpoint.
    """
    incidents, hypotheses = _judge(slo, telemetry)
    return DiagnosisReport(
        fleet=label,
        slo=slo.name,
        mode="telemetry",
        snapshot_ref="",
        snapshot_digest="",
        incidents=incidents,
        hypotheses=hypotheses)


# ---- rendering -------------------------------------------------------

def format_report(report: DiagnosisReport, top: int = 5) -> str:
    """Human-readable rendering (the ``obs diagnose`` output)."""
    title = (f"diagnosis -- {report.fleet or report.mode} "
             f"[slo {report.slo}]")
    lines = [title, "=" * len(title)]
    if report.snapshot_ref:
        lines.append(f"snapshot {report.snapshot_ref} "
                     f"(digest {report.snapshot_digest[:12]})")
    if not report.incidents:
        lines.append("no objective breaches: nothing to diagnose")
    else:
        lines.append(f"{len(report.incidents)} breached "
                     "objective(s): " + ", ".join(
                         f"{row['objective']} [{row['severity']}, "
                         f"burn {row['burn']:.1f}x]"
                         for row in report.incidents))
        shown = report.hypotheses[:top] if top else report.hypotheses
        lines.append(f"top hypotheses ({len(shown)} of "
                     f"{len(report.hypotheses)}):")
        for i, hypothesis in enumerate(shown, start=1):
            lines.append(f"  {i}. [{hypothesis.score:.3f}] "
                         f"{hypothesis.label}")
            for row in hypothesis.evidence[:4]:
                detail = ", ".join(
                    f"{key}={value}" for key, value
                    in sorted(row.items())
                    if key not in ("kind", VOLATILE_EVIDENCE_KEY))
                lines.append(f"       - {row.get('kind')}: {detail}")
    if report.anomalies:
        lines.append(f"{len(report.anomalies)} anomalous point(s) in "
                     "replay:")
        for point in report.anomalies[-4:]:
            lines.append(
                f"  [{'/'.join(point['kinds'])}] {point['detector']} "
                f"at t={point['at']:g} value {point['value']:.4f} "
                f"z {point['z']:.1f} shift {point['shift']:.1f}")
    if report.episodes:
        lines.append(f"{len(report.episodes)} timeline episode(s):")
        for row in report.episodes:
            state = "resolved" if row["resolved"] else "open"
            lines.append(
                f"  [{row['severity']}] {row['incident']} "
                f"t={row['opened_at']:g}..{row['last_at']:g} "
                f"({state})")
    if report.timeline_digest:
        lines.append(f"timeline digest {report.timeline_digest[:16]}")
    lines.append(f"diagnosis digest {report.digest()}")
    return "\n".join(lines)
