"""SLOs over telemetry: burn-rate alerting and incident timelines.

The paper's core promise is *safe* online slicing -- SLA violations
are the failure signal behind the Eq. 8 fallback -- yet everything
below this module only *records*: counters, histograms, traces.  This
module is the layer that *judges*, continuously: a declarative
:class:`SloSpec` expresses objectives over existing
:class:`~repro.obs.metrics.Telemetry` instruments (latency budgets
per slice class, SLA-violation-rate ceilings, cost ceilings,
fallback-rate bounds), and a streaming :class:`SloEvaluator` checks
them with Google-SRE-style **multi-window burn-rate alerting**.

Burn rate
    An objective grants an *error budget*: the fraction of traffic
    allowed to be bad (for a p99 latency budget, 1% may exceed it; for
    a violation-rate ceiling of 0.1, 10% of episodes may violate).
    The burn rate over a window is ``bad_fraction / budget_fraction``
    -- 1.0 spends the budget exactly on schedule, 14.4 spends a
    30-day budget in ~2 days.  An alert fires only when **both** a
    fast and a slow window burn above the threshold: the slow window
    keeps one noisy blip from paging, the fast window makes the alert
    *resolve* promptly once the condition clears.  Two severities
    (``page`` above :attr:`SloObjective.page_burn`, ``warn`` above
    :attr:`SloObjective.warn_burn`) follow the SRE-workbook defaults.

Windows are measured in whatever unit the caller's ``at`` timestamps
use -- wall seconds for a live service, served slots for a
:class:`~repro.serve.loadgen.LoadGenerator`, shard-checkpoint indices
for the fleet coordinator -- which is what makes evaluation
*deterministic* when the time axis is logical.

Firing transitions are deduplicated into an :class:`IncidentTimeline`
-- structured JSONL ``open`` / ``update`` / ``resolve`` records
carrying the offending instrument key, burn rates, optional per-cell /
per-scenario attribution, and exemplar trace-span references when a
tracer is active -- with a deterministic :meth:`IncidentTimeline
.digest` (volatile fields excluded, clock injectable) so CI can pin
whole alert sequences.  A timeline file is written start to end by
one evaluator and read back read-only (:meth:`IncidentTimeline.load`);
a run continues by replaying its checkpoint into a fresh timeline,
never by appending to an old one.  :meth:`SloEvaluator.compare` is the
point-in-time verdict the future canary controller will call:
"is the candidate's telemetry at least as healthy as the incumbent's,
objective by objective?".

Import discipline: like the rest of :mod:`repro.obs` this module
depends only on the standard library and numpy; the tagged-JSON
registration of its dataclasses lives in
:mod:`repro.runtime.serialization` (a downward import, no cycle).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Telemetry, WindowedSeries, \
    read_jsonl_numbered

TIMELINE_FORMAT = 1

#: Objective kinds (see :class:`SloObjective`).
KINDS = ("latency", "ratio", "mean")

#: SRE-workbook default thresholds: a page-severity burn of 14.4
#: spends a 30-day budget in ~2 days; warn at 6x spends it in 5 days.
DEFAULT_PAGE_BURN = 14.4
DEFAULT_WARN_BURN = 6.0

#: Burn-history samples kept per objective for sparkline rendering.
HISTORY_LIMIT = 120


@dataclass(frozen=True)
class SloObjective:
    """One objective over one (or two) telemetry instruments.

    kind="latency"
        ``instrument`` names a histogram; the SLI over a window is the
        fraction of its observations above ``budget_ms``
        (:meth:`~repro.obs.metrics.Histogram.count_over` deltas).  The
        error budget is ``(100 - percentile) / 100`` -- a p99
        objective tolerates 1% of traffic over budget.
    kind="ratio"
        ``instrument`` and ``total`` name counters (bad / all); the
        SLI is their windowed-delta ratio and ``ceiling`` is the error
        budget (allowed bad fraction).
    kind="mean"
        ``instrument`` names a histogram (windowed ``sum/count``
        mean), or a counter whose windowed delta is divided by the
        ``total`` counter's delta; ``ceiling`` is the allowed mean.
        Burn is ``mean / ceiling``, so thresholds near 1.0 (not the
        SRE defaults) are the sensible choice for mean objectives.
    """

    name: str
    kind: str
    instrument: str
    #: Denominator counter key (ratio kind; mean kind over counters).
    total: str = ""
    #: Latency budget in the instrument's own unit (latency kind).
    budget_ms: float = 0.0
    #: Which percentile the latency budget protects (latency kind).
    percentile: float = 99.0
    #: Allowed bad fraction (ratio) / allowed mean (mean).
    ceiling: float = 0.0
    #: Burn-rate windows, in the caller's ``at`` time unit.
    fast_window: float = 5.0
    slow_window: float = 30.0
    page_burn: float = DEFAULT_PAGE_BURN
    warn_burn: float = DEFAULT_WARN_BURN
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not self.instrument:
            raise ValueError(f"objective {self.name!r} names no "
                             "instrument")
        if self.kind == "latency":
            if self.budget_ms <= 0:
                raise ValueError(f"objective {self.name!r}: latency "
                                 "objectives need budget_ms > 0")
            if not 0.0 < self.percentile < 100.0:
                raise ValueError(f"objective {self.name!r}: percentile "
                                 "must be in (0, 100)")
        elif self.ceiling <= 0:
            raise ValueError(f"objective {self.name!r}: {self.kind} "
                             "objectives need ceiling > 0")
        if self.kind == "ratio" and not self.total:
            raise ValueError(f"objective {self.name!r}: ratio "
                             "objectives need a total counter")
        if not 0 < self.fast_window <= self.slow_window:
            raise ValueError(f"objective {self.name!r}: need "
                             "0 < fast_window <= slow_window")
        if not 0 < self.warn_burn <= self.page_burn:
            raise ValueError(f"objective {self.name!r}: need "
                             "0 < warn_burn <= page_burn")

    @property
    def allowance(self) -> float:
        """The error budget the burn rate is measured against."""
        if self.kind == "latency":
            return (100.0 - self.percentile) / 100.0
        return self.ceiling

    def series(self) -> WindowedSeries:
        """The windowed reading this objective is judged on (a mean
        over counters reads like a ratio)."""
        counters = self.kind != "latency" and self.total
        return WindowedSeries(
            f"objective {self.name!r}",
            "ratio" if counters else self.kind, self.instrument,
            total=self.total, threshold=self.budget_ms,
            horizon=self.slow_window)

    def severity(self, burn_fast: float, burn_slow: float
                 ) -> Optional[str]:
        """``"page"`` / ``"warn"`` when *both* burns reach the
        threshold, else ``None`` (point-in-time callers pass the one
        burn twice)."""
        floor = min(burn_fast, burn_slow)
        if floor >= self.page_burn:
            return "page"
        if floor >= self.warn_burn:
            return "warn"
        return None


@dataclass(frozen=True)
class SloSpec:
    """A named set of objectives -- the declarative health contract.

    Frozen, hashable and tagged-JSON-serialisable (via
    :mod:`repro.runtime.serialization`), like ``ScenarioSpec`` and
    ``FleetSpec``, so ``fleet run --slo spec.json`` round-trips it
    and CI can pin the spec that produced a timeline.
    """

    name: str
    objectives: Tuple[SloObjective, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slo spec name must be non-empty")
        if not self.objectives:
            raise ValueError("slo spec needs at least one objective")
        seen = set()
        for objective in self.objectives:
            if objective.name in seen:
                raise ValueError(f"duplicate objective name "
                                 f"{objective.name!r}")
            seen.add(objective.name)


def default_slo_spec(latency_budget_ms: float = 200.0,
                     fast_window: float = 1.0,
                     slow_window: float = 3.0) -> SloSpec:
    """The stock health contract over the serving stack's instruments.

    The 200 ms latency budget sits comfortably above the default
    scenario's simulated end-to-end envelope (~145-155 ms) and
    comfortably below a sustained transport degradation (the
    ``transport_brownout`` scenario adds 60 ms), so healthy fleets
    read ``ok`` and brownouts page.  Ratio ceilings (0.05 violations,
    0.10 fallbacks) are chosen so the SRE thresholds are *reachable*
    (a ceiling of c caps burn at 1/c); the fallback objective
    overrides them, since a fallback rate of 1.0 only burns 10x
    against its 0.10 ceiling.  The mean Eq. 10 cost ceiling is 1.0.

    Windows default to (1, 3) in the caller's time unit -- tuned for
    the fleet coordinator's shard-checkpoint axis, where a fast window
    of one checkpoint reacts to the newest shard and the slow window
    smooths over three.  Live services passing wall-clock seconds
    should widen both.
    """
    return SloSpec(name="default", objectives=(
        SloObjective(
            name="slice-latency-p99", kind="latency",
            instrument="slice_latency_ms",
            budget_ms=latency_budget_ms, percentile=99.0,
            fast_window=fast_window, slow_window=slow_window,
            description="simulated end-to-end slice latency "
                        "(transport + core + edge) p99 budget"),
        SloObjective(
            name="sla-violation-rate", kind="ratio",
            instrument="sla_violations", total="sla_episodes",
            ceiling=0.05,
            fast_window=fast_window, slow_window=slow_window,
            description="fraction of (episode, slice) pairs whose "
                        "mean cost broke the paper's SLA threshold"),
        SloObjective(
            name="fallback-rate", kind="ratio",
            instrument="fallbacks", total="decisions",
            ceiling=0.10, page_burn=8.0, warn_burn=4.0,
            fast_window=fast_window, slow_window=slow_window,
            description="fraction of decisions served by the Eq. 8 "
                        "safe fallback instead of the learned policy"),
        SloObjective(
            name="mean-slot-cost", kind="mean",
            instrument="slice_cost_total", total="slice_slots",
            ceiling=1.0, page_burn=1.5, warn_burn=1.0,
            fast_window=fast_window, slow_window=slow_window,
            description="mean per-slot Eq. 10 cost across slices"),
    ))


# ---- incident timeline ----------------------------------------------

#: Record fields that participate in :meth:`IncidentTimeline.digest`.
#: ``wall_time`` (real clock) and ``exemplars`` (trace file paths
#: carry pids) are deliberately volatile; everything else is a pure
#: function of the evaluated telemetry stream.
DIGEST_FIELDS = ("seq", "event", "incident", "objective", "severity",
                 "kind", "instrument", "at", "burn_fast", "burn_slow",
                 "value", "attribution")
#: Fields every incident row must carry to load: the ones the
#: timeline's readers (``obs incidents`` filters, the dashboard's
#: open-incidents pane) key on.
INCIDENT_FIELDS = ("seq", "event", "incident", "objective", "severity",
                   "at")


class IncidentTimeline:
    """Append-only JSONL incident log with a deterministic digest.

    ``path=None`` keeps records in memory (tests, ad-hoc evaluation);
    with a path every appended record lands as one JSON line, headed
    by a self-describing header row.  ``clock`` is injectable (like
    :class:`~repro.obs.metrics.Telemetry`): ``wall_time`` stamps are
    display metadata and never enter the digest.
    """

    def __init__(self, path: Optional[str] = None,
                 clock: Callable[[], float] = time.time,
                 records: Optional[List[Dict]] = None) -> None:
        self.path = path
        self._clock = clock
        self.records: List[Dict] = list(records or [])
        self._fh = None
        if path is not None and records is None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._fh.write(json.dumps(
                {"kind": "header", "format": TIMELINE_FORMAT}) + "\n")
            self._fh.flush()

    @classmethod
    def load(cls, path: str) -> "IncidentTimeline":
        """Parse a timeline file, read-only.  Torn-tail /
        corruption policy: :func:`~repro.obs.metrics.read_jsonl`.  A
        file whose first row is not this format's header (a fleet
        checkpoint, say) and an incident row lacking one of
        :data:`INCIDENT_FIELDS` are ``ValueError`` naming
        ``path:lineno``."""
        rows = read_jsonl_numbered(path)
        lineno, header = rows[0] if rows else (1, {})
        if (header.get("kind") != "header"
                or header.get("format") != TIMELINE_FORMAT):
            raise ValueError(
                f"{path}:{lineno}: not an incident timeline (the first "
                f"row must be its header, format {TIMELINE_FORMAT})")
        # incident rows carry an "event"; the header (and any future
        # non-incident row kinds) do not
        records = []
        for lineno, row in rows[1:]:
            if "event" not in row:
                continue
            missing = [key for key in INCIDENT_FIELDS if key not in row]
            if missing:
                raise ValueError(f"{path}:{lineno}: incident row lacks "
                                 f"{', '.join(missing)}")
            records.append(row)
        return cls(records=records)

    def append(self, record: Dict) -> Dict:
        record = dict(record)
        record["seq"] = len(self.records)
        record["wall_time"] = self._clock()
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def open_incidents(self) -> Dict[str, Dict]:
        """Objective name -> latest unresolved open/update record."""
        open_by_objective: Dict[str, Dict] = {}
        for record in self.records:
            objective = record["objective"]
            if record["event"] in ("open", "update"):
                open_by_objective[objective] = record
            elif record["event"] == "resolve":
                open_by_objective.pop(objective, None)
        return open_by_objective

    def digest(self) -> str:
        """SHA-256 over the deterministic projection of every record
        (see :data:`DIGEST_FIELDS`) -- pinnable in CI whenever the
        evaluated stream used a logical time axis."""
        sha = hashlib.sha256()
        for record in self.records:
            projection = []
            for key in DIGEST_FIELDS:
                value = record.get(key)
                if isinstance(value, float):
                    value = round(value, 9)
                projection.append(value)
            sha.update(json.dumps(projection,
                                  sort_keys=True).encode("utf-8"))
        return sha.hexdigest()


# ---- streaming evaluation -------------------------------------------

@dataclass
class ObjectiveStatus:
    """One objective's latest evaluation, for dashboards."""

    objective: SloObjective
    severity: Optional[str] = None      # None | "warn" | "page"
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    value: float = 0.0                  # fast-window SLI
    at: Optional[float] = None
    incident: Optional[str] = None
    #: Recent fast-window burns, oldest first (sparkline fodder).
    history: List[float] = field(default_factory=list)


class SloEvaluator:
    """Streams periodic :class:`Telemetry` snapshots through the
    spec's objectives and appends deduplicated firing transitions to
    an :class:`IncidentTimeline`.

    Feed it *cumulative* registries (the natural shape of this repo's
    telemetry: counters and histograms only ever grow, and fleet
    prefixes merge monotonically); each objective reads its fast and
    slow windows off one :class:`~repro.obs.metrics.WindowedSeries`.
    The timeline must start empty: a fleet run continues by replaying
    its checkpoint (:class:`~repro.obs.diagnose.ShardReplay`), which
    re-derives every record from the first shard on.
    """

    def __init__(self, spec: SloSpec,
                 timeline: Optional[IncidentTimeline] = None,
                 attribution_hook: Optional[
                     Callable[[SloObjective, Dict], Sequence[Dict]]]
                 = None) -> None:
        if timeline is not None and timeline.records:
            raise ValueError(
                f"the incident timeline already holds "
                f"{len(timeline.records)} record(s); a fleet run "
                f"continues by replaying its checkpoint (ShardReplay) "
                f"into a fresh timeline")
        self.spec = spec
        self.timeline = timeline if timeline is not None \
            else IncidentTimeline()
        #: Called with (objective, record) for every open/update/
        #: resolve transition; the dict rows it returns are appended
        #: to the record's attribution.  Rows enter the timeline
        #: digest, so hooks must emit deterministic fields only (the
        #: diagnosis layer's event hook attaches scenario event
        #: windows this way).
        self.attribution_hook = attribution_hook
        self._series: Dict[str, WindowedSeries] = \
            {o.name: o.series() for o in spec.objectives}
        self._status: Dict[str, ObjectiveStatus] = \
            {o.name: ObjectiveStatus(objective=o)
             for o in spec.objectives}
        self._counts: Dict[str, int] = {o.name: 0
                                        for o in spec.objectives}
        #: ``(objective, series, status, allowance)`` in spec order:
        #: what the streaming step walks.
        self._rows = tuple(
            (o, self._series[o.name], self._status[o.name], o.allowance)
            for o in spec.objectives)

    # ---- the streaming step -----------------------------------------

    def observe(self, telemetry: Telemetry, at: float,
                attribution: Optional[Sequence[Dict]] = None
                ) -> List[Dict]:
        """Evaluate one cumulative snapshot at logical time ``at``.

        ``attribution`` (e.g. the worst cells of the shard that just
        landed, deterministic fields only) is attached to any record
        this step emits.  Returns the records appended (empty when
        nothing changed -- the dedup guarantee).
        """
        at = float(at)
        emitted: List[Dict] = []
        exemplars: Optional[List[Dict]] = None
        for objective, series, status, allowance in self._rows:
            series.push(telemetry, at)
            sli_fast = series.rate(objective.fast_window)
            burn_fast = sli_fast / allowance
            burn_slow = series.rate(objective.slow_window) / allowance
            severity = objective.severity(burn_fast, burn_slow)

            previous = status.severity
            status.burn_fast = burn_fast
            status.burn_slow = burn_slow
            status.value = sli_fast
            status.at = at
            status.history.append(burn_fast)
            del status.history[:-HISTORY_LIMIT]

            if severity == previous:
                continue
            name = objective.name
            if severity is not None and previous is None:
                event = "open"
                self._counts[name] += 1
                status.incident = f"{name}#{self._counts[name]}"
            elif severity is not None:
                event = "update"         # severity changed while open
            else:
                event = "resolve"
            if exemplars is None:
                exemplars = _trace_exemplars()
            record = {
                "event": event,
                "incident": status.incident,
                "objective": name,
                "severity": severity if severity is not None
                else previous,
                "kind": objective.kind,
                "instrument": objective.instrument,
                "at": at,
                "burn_fast": burn_fast,
                "burn_slow": burn_slow,
                "value": sli_fast,
                "attribution": [dict(row) for row in attribution]
                if attribution else [],
            }
            if self.attribution_hook is not None:
                record["attribution"].extend(
                    dict(row) for row in
                    self.attribution_hook(objective, record))
            if exemplars:
                record["exemplars"] = exemplars
            emitted.append(self.timeline.append(record))
            status.severity = severity
            if severity is None:
                status.incident = None
        return emitted

    # ---- readouts ----------------------------------------------------

    def statuses(self) -> List[ObjectiveStatus]:
        """Latest per-objective evaluation, in spec order."""
        return [self._status[o.name] for o in self.spec.objectives]

    @property
    def paging(self) -> bool:
        """True while any objective has an open page-severity
        incident -- the ``fleet run --slo --fail-fast`` trigger."""
        return any(status.severity == "page"
                   for status in self._status.values())

    # ---- the canary verdict -----------------------------------------

    def compare(self, incumbent: Telemetry, candidate: Telemetry,
                tolerance: float = 0.10) -> Dict:
        """Point-in-time verdict: is ``candidate`` at least as healthy
        as ``incumbent``?

        For every objective the *whole-registry* SLI of both sides is
        compared: the candidate passes if it is within the objective's
        own error budget, or no more than ``tolerance`` (relative)
        worse than the incumbent -- a candidate must not be punished
        for inheriting an already-burning objective.  This is the
        reusable verdict function a canary controller calls before
        promoting a snapshot; it streams nothing and opens no
        incidents.
        """
        rows: List[Dict] = []
        ok = True
        for objective in self.spec.objectives:
            series = self._series[objective.name]
            inc_value = series.overall(incumbent)
            cand_value = series.overall(candidate)
            within_budget = cand_value <= objective.allowance
            regressed = cand_value > inc_value * (1.0 + tolerance) \
                + 1e-12
            row_ok = within_budget or not regressed
            ok = ok and row_ok
            rows.append({
                "objective": objective.name,
                "kind": objective.kind,
                "instrument": objective.instrument,
                "allowance": objective.allowance,
                "incumbent": inc_value,
                "candidate": cand_value,
                "within_budget": within_budget,
                "regressed": regressed,
                "ok": row_ok,
            })
        return {"spec": self.spec.name, "tolerance": tolerance,
                "rows": rows, "candidate_ok": ok}


def _trace_exemplars() -> List[Dict]:
    """Exemplar span references from the active tracer, if any: its
    three rollup rows with the most total time.

    Volatile by nature (trace file names carry pids, counts depend on
    flush timing) -- attached to incident records for debugging,
    excluded from the timeline digest.
    """
    # repro.obs re-exports trace() the *function*, which shadows the
    # submodule on attribute-style imports; resolve the module itself
    import importlib

    trace_module = importlib.import_module("repro.obs.trace")
    tracer = trace_module.active()
    if tracer is None:
        return []
    rollup = tracer.rollup()
    top = sorted(rollup.items(),
                 key=lambda item: -item[1]["total_ms"])[:3]
    exemplars = []
    for (path, attrs), entry in top:
        exemplars.append({"span": path, "attrs": dict(attrs),
                          "count": int(entry["count"]),
                          "trace_file": tracer.path})
    return exemplars
