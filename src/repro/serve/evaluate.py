"""Evaluate a saved policy snapshot on any scenario.

The "evaluate from snapshot" half of the train-once path: instead of
re-running offline + online training inside every experiment unit, the
robustness sweep (and any caller) loads a snapshot and replays
deterministic episodes through the decision service, producing the
same :class:`~repro.experiments.metrics.MethodResult` shape the
training-based units return.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.metrics import (
    MethodResult,
    usage_percent,
    violation_percent,
)
from repro.serve.loadgen import LoadGenerator
from repro.serve.policy_store import PolicySnapshot

#: Result labels per snapshot method (matches the trained units).
METHOD_LABELS = {
    "onslicing": "OnSlicing",
    "onrl": "OnRL",
    "baseline": "Baseline",
    "model_based": "Model_Based",
}


def evaluate_snapshot(snapshot: PolicySnapshot, scenario=None,
                      episodes: int = 1,
                      slices: Optional[int] = None,
                      seed: Optional[int] = None) -> MethodResult:
    """Deterministic service-side evaluation of a snapshot.

    ``scenario`` defaults to the snapshot's training scenario --
    passing a different one measures transfer (the robustness
    question).  Metrics follow the Table 1 protocol: per-(episode,
    slice) SLA violations and mean usage over the served traffic.
    """
    generator = LoadGenerator(snapshot,
                              scenario if scenario is not None
                              else snapshot.scenario,
                              slices=slices, seed=seed)
    report = generator.run(episodes=episodes)
    return MethodResult(
        method=METHOD_LABELS[snapshot.method],
        avg_resource_usage=usage_percent(report.mean_usage),
        avg_sla_violation=violation_percent(report.violation_rate),
        per_slice_usage=report.per_slice_usage,
        per_slice_violation=report.per_slice_violation)
