"""Result containers and metric arithmetic for the evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Result label per method, as every unit and snapshot evaluation
#: reports it.
METHOD_LABELS = {
    "onslicing": "OnSlicing",
    "onrl": "OnRL",
    "baseline": "Baseline",
    "model_based": "Model_Based",
}


@dataclass(frozen=True)
class TrajectoryPoint:
    """One epoch of a learning trajectory (Fig. 9/11/13 material)."""

    epoch: int
    mean_usage: float
    mean_cost: float
    violation_rate: float
    mean_interactions: float = 1.0
    switch_rate: float = 0.0
    per_slice_usage: Dict[str, float] = field(default_factory=dict)
    per_slice_violation: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MethodResult:
    """Final evaluation of one method (Table 1/2/3 rows)."""

    method: str
    avg_resource_usage: float          # percent, 0..100
    avg_sla_violation: float           # percent, 0..100
    mean_interactions: float = 1.0
    trajectory: List[TrajectoryPoint] = field(default_factory=list)
    per_slice_usage: Dict[str, float] = field(default_factory=dict)
    per_slice_violation: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "avg_res_usage_pct": round(self.avg_resource_usage, 2),
            "avg_sla_violation_pct": round(self.avg_sla_violation, 2),
        }


def usage_percent(mean_usage: float) -> float:
    """Convert a [0, 1] mean usage to the paper's percent scale."""
    return 100.0 * mean_usage


def violation_percent(violation_rate: float) -> float:
    return 100.0 * violation_rate


def cdf(samples) -> Dict[str, np.ndarray]:
    """Empirical CDF points of a sample list (Fig. 16/17 series)."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ValueError("empty sample set")
    probs = np.arange(1, arr.size + 1) / arr.size
    return {"x": arr, "p": probs}


def online_phase_summary(trajectory: List[TrajectoryPoint]
                         ) -> Dict[str, float]:
    """Averages over the online learning phase (Table 2 metrics)."""
    if not trajectory:
        raise ValueError("empty trajectory")
    return {
        "avg_res_usage_pct": usage_percent(
            float(np.mean([p.mean_usage for p in trajectory]))),
        "avg_sla_violation_pct": violation_percent(
            float(np.mean([p.violation_rate for p in trajectory]))),
        "mean_interactions": float(
            np.mean([p.mean_interactions for p in trajectory])),
    }
