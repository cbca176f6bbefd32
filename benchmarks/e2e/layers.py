"""The metric registry.

``BENCHMARK.json`` declares the *gate*: the end-to-end metrics every
workload reports, and every per-layer metric.  Its contract wants each
end-to-end metric from each workload and none that can read 0, and it
has no field for the workloads a metric applies to, so the issue's ten
end-to-end metrics are listed here, each with its workloads; a full
run measures, prints and stores all of them and ``run.py compare``
judges all of them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")
with open(SPEC_PATH, "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])

# ---------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------

#: (name, unit, better, bound) of the gate ``BENCHMARK.json``
#: publishes.  ``body_s`` is the wall time of one measured body at the
#: workload's fixed size: the denominator of that workload's own
#: throughput metric below, so gating it gates them.  Times are at
#: reference core speed (see :mod:`tracing`).  Bounds are set from the
#: spread measured over ten seeds per workload (README).
GATED: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"])
    for m in SPEC["end_to_end"])

_SLA_JUDGED = ("fleet_onslicing", "fleet_baseline_sharded",
               "train_online")

#: (name, unit, better, bound, workloads) of the issue's end-to-end
#: metrics that are not in the gate: those only some workloads have,
#: and the two that read 0 on a healthy run.
SPECIFIC: Tuple[Tuple[str, str, str, float, Tuple[str, ...]], ...] = (
    ("decisions_per_s", "1/s", "higher", 0.15,
     ("fleet_onslicing", "fleet_baseline_sharded", "serve_dense")),
    ("decide_ms_p50", "ms", "lower", 0.15, ("serve_dense",)),
    ("world_slots_per_s", "1/s", "higher", 0.15, ("engine_fuzz",)),
    ("env_steps_per_s", "1/s", "higher", 0.15, ("train_online",)),
    ("offline_stage_s", "s", "lower", 0.15, ("train_online",)),
    ("sla_violation_pct", "%", "lower", 0.0, _SLA_JUDGED),
    ("failure_rate", "fraction", "lower", 0.0, WORKLOADS),
)

#: Metrics that are a pure function of (code, seed): two runs of the
#: same code at the same seed must agree exactly, so ``compare`` holds
#: them to bound 0 there.  (The gate's bound on ``resource_usage_pct``
#: is the spread over *seeds*, which the contract's runs vary.)
DETERMINISTIC = ("resource_usage_pct", "sla_violation_pct")


def end_to_end_names(workload: str) -> List[str]:
    """Every end-to-end metric one workload's result carries."""
    return [name for name, *_ in GATED] + [
        name for name, _, _, _, workloads in SPECIFIC
        if workload in workloads]


def metric_info(name: str) -> Tuple[str, str, float]:
    """(unit, better, bound) of any end-to-end metric."""
    for row in GATED + SPECIFIC:
        if row[0] == name:
            return row[1], row[2], row[3]
    raise KeyError(name)


# ---------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------

#: (name, unit, better) of every per-layer metric.  ``_s`` = busy
#: seconds of the layer's spans in one traced run (raw wall seconds),
#: ``_n`` = calls.  A workload that bypasses a layer reports 0 for it
#: -- that zero is the bypass prediction made visible.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"])

PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)


def span_layers(self_seconds: Dict[str, float],
                counts: Dict[str, int]) -> Dict[str, float]:
    """Span sums -> the registry's ``<span>_s`` / ``<span>_n``."""
    out: Dict[str, float] = {}
    for span, seconds in self_seconds.items():
        if f"{span}_s" in PER_LAYER_NAMES:
            out[f"{span}_s"] = seconds
    for span, count in counts.items():
        if f"{span}_n" in PER_LAYER_NAMES:
            out[f"{span}_n"] = float(count)
    return out
