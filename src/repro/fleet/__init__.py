"""Fleet layer: sharded multi-cell campaigns over the serving stack.

The paper evaluates one base station; the ROADMAP's north star is a
system serving millions of users.  This package is the first layer
where that is a code path rather than an extrapolation: a
:class:`FleetSpec` declares N cells -- each an independent
:class:`~repro.sim.env.ScenarioSimulator` running its own registered
scenario under a seed derived from the fleet seed -- sharded across
worker processes that all serve decisions from one digest-pinned
:class:`~repro.serve.policy_store.PolicyStore` snapshot: one
:class:`~repro.serve.service.SlicingService` per cell, one
:class:`~repro.serve.service.DecisionCore` call per shard and slot.

* :mod:`repro.fleet.spec` -- :class:`FleetSpec` / :class:`CellPlan`:
  declarative campaigns, tagged-JSON serialisable and content-keyed
  like scenario specs;
* :mod:`repro.fleet.shard` -- :func:`run_fleet_shard`: one worker's
  cells, merged into O(instruments) mergeable telemetry;
* :mod:`repro.fleet.coordinator` -- :func:`run_fleet`: shard fan-out,
  streaming O(shards) aggregation, JSONL checkpoints and resume, and
  deterministic per-checkpoint SLO evaluation (``--slo``);
* :mod:`repro.fleet.report` -- :class:`FleetReport`: fleet p50/p99
  latency, the per-scenario SLA table, per-cell outliers, and a
  deterministic report digest (resume-safe by construction).

CLI: ``python -m repro fleet run --cells 32`` / ``fleet report``;
``fleet_sweep`` runs fleets as cached experiment units.
"""

from repro.fleet.coordinator import (
    FleetCheckpoint,
    FleetSloBreach,
    NotACheckpoint,
    evaluate_checkpoint_slo,
    load_checkpoint,
    plan_shards,
    report_from_checkpoint,
    run_fleet,
)
from repro.fleet.report import (
    CellOutlier,
    FleetReport,
    ScenarioRow,
    build_report,
    fleet_digest,
    format_report,
)
from repro.fleet.shard import (
    CellStats,
    ShardPlan,
    ShardResult,
    run_fleet_shard,
)
from repro.fleet.spec import CellPlan, FleetSpec, derive_cell_seed

__all__ = [
    "CellOutlier",
    "CellPlan",
    "CellStats",
    "FleetCheckpoint",
    "FleetReport",
    "FleetSloBreach",
    "FleetSpec",
    "NotACheckpoint",
    "ScenarioRow",
    "ShardPlan",
    "ShardResult",
    "build_report",
    "derive_cell_seed",
    "evaluate_checkpoint_slo",
    "fleet_digest",
    "format_report",
    "load_checkpoint",
    "plan_shards",
    "report_from_checkpoint",
    "run_fleet",
    "run_fleet_shard",
]
