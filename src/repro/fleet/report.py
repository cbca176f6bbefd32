"""Fleet-level aggregation: scenario SLA table, outliers, digest.

:func:`build_report` folds per-shard results (already merged per
shard) into one :class:`FleetReport`: fleet-wide p50/p99 decision
latency from the merged bounded histograms, a per-scenario SLA table,
and the per-cell outliers an operator would page on.  The report's
``digest`` covers only the *deterministic* outcome -- the fleet spec,
the snapshot digest, and every cell's decision digest and SLA
accounting -- never wall-clock timings, so an interrupted-then-resumed
campaign reproduces the digest of an uninterrupted one bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fleet.shard import CellStats, ShardResult
from repro.fleet.spec import FleetSpec
from repro.obs.metrics import Telemetry
from repro.runtime.cache import content_key
from repro.runtime.serialization import register_dataclass
from repro.serve.service import DECISION_STAGES

#: Cells reported as outliers (largest SLA deviation first).
OUTLIER_LIMIT = 5


@register_dataclass
@dataclass(frozen=True)
class ScenarioRow:
    """Aggregate SLA health of every cell running one scenario."""

    scenario: str
    cells: int
    decisions: int
    violation_rate: float           # mean over the scenario's cells
    mean_usage: float
    fallback_rate: float


@register_dataclass
@dataclass(frozen=True)
class StageRow:
    """Fleet-wide latency of one decision-path stage.

    Built from the merged ``stage_<name>_ms`` histograms every
    :class:`~repro.serve.service.SlicingService` cell records per
    decision (its row-proportional share of the stage's time when one
    call decided many cells), so the breakdown survives shard fan-in
    exactly like the decision-latency histogram does.  ``share`` is the stage's
    fraction of the summed stage time -- where a fleet's decision
    latency actually goes.
    """

    stage: str
    count: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    total_ms: float
    share: float


@register_dataclass
@dataclass(frozen=True)
class CellOutlier:
    """One cell whose SLA health deviates most from its scenario."""

    cell: int
    scenario: str
    violation_rate: float
    deviation: float                # |cell rate - scenario mean|
    p99_latency_ms: float


@register_dataclass
@dataclass(frozen=True)
class FleetReport:
    """The coordinator's final aggregate over a fleet campaign."""

    spec: FleetSpec
    snapshot_ref: str
    snapshot_digest: str
    shards: int
    cells: int
    decisions: int
    fallbacks: int
    violation_rate: float           # mean over all cells
    mean_usage: float
    p50_latency_ms: float
    p99_latency_ms: float
    wall_time_s: float
    decisions_per_sec: float
    scenarios: Tuple[ScenarioRow, ...]
    outliers: Tuple[CellOutlier, ...]
    #: Content hash of the deterministic outcome (see module doc).
    digest: str
    #: Per-stage decision latency (empty for pre-obs checkpoints).
    stages: Tuple[StageRow, ...] = ()

    def row(self) -> Dict[str, object]:
        """Flat summary for CLI/JSON output."""
        return {
            "fleet": self.spec.name,
            "cells": self.cells,
            "shards": self.shards,
            "decisions": self.decisions,
            "fallbacks": self.fallbacks,
            "violation_rate": self.violation_rate,
            "mean_usage": self.mean_usage,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "wall_time_s": self.wall_time_s,
            "decisions_per_sec": self.decisions_per_sec,
            "digest": self.digest,
        }


def fleet_digest(spec: FleetSpec, snapshot_digest: str,
                 cells: List[CellStats]) -> str:
    """Deterministic identity of a campaign's outcome.

    Hashes the spec, the snapshot digest and each cell's deterministic
    fields in cell order -- explicitly *not* latencies or wall time,
    which vary run to run even for identical decisions.
    """
    return content_key({
        "spec": spec,
        "snapshot_digest": snapshot_digest,
        "cells": [(stats.cell, stats.scenario, stats.seed,
                   stats.slices, stats.episodes, stats.decisions,
                   stats.fallbacks, stats.violation_rate,
                   stats.mean_usage, stats.decision_digest)
                  for stats in sorted(cells, key=lambda s: s.cell)],
    })


def build_report(spec: FleetSpec, snapshot_ref: str,
                 snapshot_digest: str, results: List[ShardResult],
                 shards: int, wall_time_s: float) -> FleetReport:
    """Fold shard results into the fleet aggregate.

    Shard results are merged in shard order regardless of completion
    order, and counters/histograms are commutative, so the aggregate
    is independent of scheduling.  Memory is O(shards + cells): live
    histograms exist only per shard (bounded buckets), never per
    decision.
    """
    results = sorted(results, key=lambda r: r.shard)
    telemetry = Telemetry()
    cells: List[CellStats] = []
    for result in results:
        telemetry.merge(result.telemetry())
        cells.extend(result.cells)
    cells.sort(key=lambda stats: stats.cell)
    decisions = sum(stats.decisions for stats in cells)
    fallbacks = sum(stats.fallbacks for stats in cells)
    by_scenario: Dict[str, List[CellStats]] = {}
    for stats in cells:
        by_scenario.setdefault(stats.scenario, []).append(stats)
    scenario_rows = []
    scenario_means: Dict[str, float] = {}
    for name in sorted(by_scenario):
        group = by_scenario[name]
        group_decisions = sum(s.decisions for s in group)
        mean_violation = (sum(s.violation_rate for s in group)
                          / len(group))
        scenario_means[name] = mean_violation
        scenario_rows.append(ScenarioRow(
            scenario=name, cells=len(group),
            decisions=group_decisions,
            violation_rate=mean_violation,
            mean_usage=sum(s.mean_usage for s in group) / len(group),
            fallback_rate=(sum(s.fallbacks for s in group)
                           / group_decisions if group_decisions
                           else 0.0)))
    ranked = sorted(
        cells,
        key=lambda s: (-abs(s.violation_rate
                            - scenario_means[s.scenario]), s.cell))
    outliers = tuple(
        CellOutlier(cell=stats.cell, scenario=stats.scenario,
                    violation_rate=stats.violation_rate,
                    deviation=abs(stats.violation_rate
                                  - scenario_means[stats.scenario]),
                    p99_latency_ms=stats.p99_latency_ms)
        for stats in ranked[:OUTLIER_LIMIT])
    latency = telemetry.histogram("decision_latency_ms")
    stage_rows = _stage_rows(telemetry)
    return FleetReport(
        spec=spec,
        snapshot_ref=snapshot_ref,
        snapshot_digest=snapshot_digest,
        shards=shards,
        cells=len(cells),
        decisions=decisions,
        fallbacks=fallbacks,
        violation_rate=(sum(s.violation_rate for s in cells)
                        / len(cells) if cells else 0.0),
        mean_usage=(sum(s.mean_usage for s in cells) / len(cells)
                    if cells else 0.0),
        p50_latency_ms=latency.percentile(50.0),
        p99_latency_ms=latency.percentile(99.0),
        wall_time_s=wall_time_s,
        decisions_per_sec=(decisions / wall_time_s
                           if wall_time_s > 0 else 0.0),
        scenarios=tuple(scenario_rows),
        outliers=outliers,
        digest=fleet_digest(spec, snapshot_digest, cells),
        stages=stage_rows)


def _stage_rows(telemetry: Telemetry) -> Tuple[StageRow, ...]:
    """Per-stage latency rows from the merged ``stage_*_ms``
    histograms, in decision-pipeline order (then any extra stages
    alphabetically)."""
    histograms = telemetry.histograms()
    names = [name for name in histograms
             if name.startswith("stage_") and name.endswith("_ms")]
    if not names:
        return ()
    order = {stage: i for i, stage in enumerate(DECISION_STAGES)}
    stages = sorted((name[len("stage_"):-len("_ms")] for name in names),
                    key=lambda s: (order.get(s, len(order)), s))
    total = sum(histograms[f"stage_{stage}_ms"].total
                for stage in stages)
    rows = []
    for stage in stages:
        histogram = histograms[f"stage_{stage}_ms"]
        rows.append(StageRow(
            stage=stage,
            count=histogram.count,
            mean_ms=histogram.mean,
            p50_ms=histogram.percentile(50.0),
            p99_ms=histogram.percentile(99.0),
            total_ms=histogram.total,
            share=histogram.total / total if total else 0.0))
    return tuple(rows)


def format_report(report: FleetReport) -> str:
    """Human-readable rendering (the CLI's non-JSON output)."""
    lines = [
        f"== fleet {report.spec.name} ==",
        f"  snapshot          {report.snapshot_ref} "
        f"(digest {report.snapshot_digest[:12]})",
        f"  cells             {report.cells} over {report.shards} "
        "shard(s)",
        f"  decisions         {report.decisions} "
        f"({report.fallbacks} fallbacks)",
        f"  throughput        {report.decisions_per_sec:,.0f} "
        f"decisions/s over {report.wall_time_s:.2f}s",
        f"  decision latency  p50 {report.p50_latency_ms:.3f} ms   "
        f"p99 {report.p99_latency_ms:.3f} ms",
        f"  SLA violation     {100.0 * report.violation_rate:.1f}% "
        "of (episode, slice)",
        f"  mean usage        {100.0 * report.mean_usage:.1f}%",
        f"  report digest     {report.digest[:16]}",
        "  -- per-scenario SLA --",
    ]
    lines.append(f"  {'scenario':<18} {'cells':>5} {'decisions':>10} "
                 f"{'violation':>10} {'usage':>7} {'fallback':>9}")
    for row in report.scenarios:
        lines.append(
            f"  {row.scenario:<18} {row.cells:>5} {row.decisions:>10} "
            f"{100.0 * row.violation_rate:>9.1f}% "
            f"{100.0 * row.mean_usage:>6.1f}% "
            f"{100.0 * row.fallback_rate:>8.1f}%")
    if report.stages:
        lines.append("  -- decision stage latency --")
        lines.append(f"  {'stage':<12} {'count':>10} {'mean ms':>9} "
                     f"{'p50 ms':>9} {'p99 ms':>9} {'share':>6}")
        for stage in report.stages:
            lines.append(
                f"  {stage.stage:<12} {stage.count:>10} "
                f"{stage.mean_ms:>9.4f} {stage.p50_ms:>9.4f} "
                f"{stage.p99_ms:>9.4f} {100.0 * stage.share:>5.1f}%")
    if report.outliers:
        lines.append("  -- cell outliers (|violation - scenario "
                     "mean|) --")
        for outlier in report.outliers:
            lines.append(
                f"  cell {outlier.cell:<4} {outlier.scenario:<18} "
                f"violation {100.0 * outlier.violation_rate:>5.1f}% "
                f"(dev {100.0 * outlier.deviation:>5.1f}%)  "
                f"p99 {outlier.p99_latency_ms:.3f} ms")
    return "\n".join(lines)
