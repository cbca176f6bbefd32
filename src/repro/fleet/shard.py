"""Shard execution: one worker's slice of a fleet campaign.

A :class:`ShardPlan` is everything one worker process needs to run its
cells without talking to anyone: the fleet spec, its cell assignments,
the *resolved* scenario specs (so worker processes never re-resolve
the registry), and the digest-pinned snapshot reference.  The shard
loads the snapshot from the :class:`~repro.serve.policy_store
.PolicyStore` exactly once, verifies the digest, then drives its cells
-- one :class:`~repro.serve.loadgen.LoadGenerator` each, a
:class:`~repro.serve.service.SlicingService` over the shared snapshot
-- in lockstep: one decision batch and one engine step per slot for
all of them, on the repo's one replay driver
(:func:`~repro.engine.policies.lockstep`, through
:func:`~repro.serve.loadgen.drive_lockstep`).

Telemetry never leaves the shard raw: per-cell counters and bounded
histograms merge into one shard-level :class:`~repro.obs.metrics
.Telemetry`, and the :class:`ShardResult` shipped to the coordinator
is O(instruments) + O(cells-in-shard) small, no matter how many
decisions the shard served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config import ENGINES
from repro.fleet.spec import CellPlan, FleetSpec
from repro.obs.metrics import Telemetry
from repro.obs.trace import configure_from_env, flush as trace_flush, \
    trace
from repro.runtime.serialization import register_dataclass
from repro.scenarios import ScenarioSpec
from repro.serve.loadgen import LoadGenerator, drive_lockstep
from repro.serve.policy_store import PolicySnapshot, PolicyStore


@register_dataclass
@dataclass(frozen=True)
class CellStats:
    """One cell's deterministic outcome plus its latency readout."""

    cell: int
    scenario: str
    seed: int
    slices: int
    episodes: int
    decisions: int
    fallbacks: int
    violation_rate: float
    mean_usage: float
    service_time_s: float
    p50_latency_ms: float
    p99_latency_ms: float
    #: SHA-256 over every action the cell's service produced, in
    #: order -- the replayable identity of the cell's run.
    decision_digest: str


@register_dataclass
@dataclass(frozen=True)
class ShardResult:
    """One shard's merged telemetry and per-cell rows."""

    shard: int
    cells: Tuple[CellStats, ...]
    #: Merged counter totals across the shard's cells.
    counters: Dict[str, float]
    #: Merged histogram states (:meth:`Histogram.state`) by name.
    histograms: Dict[str, Dict]
    elapsed_s: float
    #: Resolved injected-event timelines by scenario name
    #: (:meth:`~repro.scenarios.ScenarioSpec.event_timeline` rows for
    #: every scenario this shard ran) -- the diagnosis layer's "what
    #: was injected when".  Defaults empty so checkpoints written
    #: before event capture still decode.
    events: Dict[str, Tuple[Dict, ...]] = field(default_factory=dict)

    @property
    def decisions(self) -> int:
        return sum(stats.decisions for stats in self.cells)

    def telemetry(self) -> Telemetry:
        """Rebuild live instruments from the serialised states."""
        return Telemetry.from_state(self.counters, self.histograms)


@dataclass(frozen=True)
class ShardPlan:
    """One worker's self-contained slice of a fleet campaign.

    Travels to worker processes by pickle (never JSON), so it carries
    live :class:`ScenarioSpec` objects keyed by name.
    """

    shard: int
    spec: FleetSpec
    cells: Tuple[CellPlan, ...]
    scenarios: Dict[str, ScenarioSpec]
    store_dir: str
    snapshot_ref: str
    snapshot_digest: str
    #: Batch width only: "vector" steps every cell of the shard in
    #: one lockstep :class:`~repro.engine.batch.BatchSimulator`,
    #: "scalar" runs the same drive loop one cell at a time.  Cell
    #: results (decision digests included) are identical, so the
    #: choice never enters cache keys.
    engine: str = "vector"


def run_fleet_shard(plan: ShardPlan,
                    snapshot: Optional[PolicySnapshot] = None
                    ) -> ShardResult:
    """Run every cell of ``plan`` to completion (in this process).

    Top-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    run it; the inline (1-shard) path passes the already-loaded
    ``snapshot`` to skip the redundant store read.  Deterministic
    given the plan and snapshot: cell seeds are fixed by the fleet
    spec, so the same cells produce the same decision digests on any
    shard of any run.
    """
    start = time.perf_counter()
    # Worker processes join the trace session here (the coordinator
    # process configured itself before fanning out); each process
    # appends to its own file, merged at report time.
    configure_from_env(label="shard")
    if snapshot is None:
        snapshot = PolicyStore(plan.store_dir).load(plan.snapshot_ref)
    if snapshot.digest != plan.snapshot_digest:
        raise ValueError(
            f"snapshot {plan.snapshot_ref!r} changed since the fleet "
            f"was planned (digest {snapshot.digest[:12]} != "
            f"{plan.snapshot_digest[:12]}); re-plan the fleet")
    if plan.engine not in ENGINES:
        raise ValueError(
            f"unknown engine {plan.engine!r}; expected one of "
            f"{ENGINES}")
    with trace("fleet.shard", shard=plan.shard):
        aggregate = Telemetry()
        generators = []
        telemetries = []
        events: Dict[str, Tuple[Dict, ...]] = {}
        for cell in plan.cells:
            scenario = plan.spec.cell_scenario(
                plan.scenarios[cell.scenario])
            if cell.scenario not in events:
                events[cell.scenario] = scenario.event_timeline()
            telemetry = Telemetry()
            telemetries.append(telemetry)
            generators.append(LoadGenerator(
                snapshot, scenario, seed=cell.seed,
                telemetry=telemetry,
                trace_attrs={"cell": cell.cell,
                             "scenario": cell.scenario}))
        batches = ([[generator] for generator in generators]
                   if plan.engine == "scalar" else [generators])
        for cells in batches:
            drive_lockstep(cells, plan.spec.episodes)
        reports = [generator.finish_run() for generator in generators]
        rows = []
        for cell, telemetry, report in zip(plan.cells, telemetries,
                                           reports):
            aggregate.merge(telemetry)
            aggregate.counter("cells").inc()
            rows.append(CellStats(
                cell=cell.cell, scenario=cell.scenario, seed=cell.seed,
                slices=report.slices, episodes=report.episodes,
                decisions=report.decisions,
                fallbacks=report.fallbacks,
                violation_rate=report.violation_rate,
                mean_usage=report.mean_usage,
                service_time_s=report.service_time_s,
                p50_latency_ms=report.p50_latency_ms,
                p99_latency_ms=report.p99_latency_ms,
                decision_digest=report.decision_digest))
    # shards run in pool workers that may be reused or killed;
    # flushing per shard keeps every trace file complete and
    # delta-consistent regardless
    trace_flush()
    return ShardResult(
        shard=plan.shard,
        cells=tuple(rows),
        counters={name: counter.value for name, counter
                  in aggregate.counters().items()},
        histograms={name: histogram.state() for name, histogram
                    in aggregate.histograms().items()},
        elapsed_s=time.perf_counter() - start,
        events=events)
