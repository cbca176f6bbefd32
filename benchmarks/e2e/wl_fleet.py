"""The two fleet workloads: snapshot -> judged, diagnosed campaign.

``fleet_onslicing`` runs ROADMAP's whole path inline (one shard, so
layers can add up to wall) with the learned snapshot at *tiny* decision
batches; ``fleet_baseline_sharded`` serves the pi_b tables through two
pool workers, so everything *around* the networks does the work.

The traced driver re-drives the lockstep loop ``fleet/shard.py``
documents (``LoadGenerator.begin_run / begin_episode / serve_slot /
record_step / end_episode / finish_run`` over
``BatchSimulator.reset_world / step``) one shard plan after the other
in this process, then the coordinator's public tail (``to_jsonable``
checkpoint rows, ``load_checkpoint``, ``evaluate_checkpoint_slo``,
``build_report``, ``diagnose_fleet``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batch import BatchSimulator
from repro.fleet import (
    CellStats,
    FleetSpec,
    ShardResult,
    build_report,
    evaluate_checkpoint_slo,
    load_checkpoint,
    plan_shards,
    report_from_checkpoint,
    run_fleet,
)
from repro.obs.diagnose import diagnose_fleet
from repro.obs.profile import KernelProfiler
from repro.obs.slo import IncidentTimeline, default_slo_spec
from repro.runtime.serialization import to_jsonable
from repro.scenarios import ROBUSTNESS_MATRIX
from repro.serve import LoadGenerator, PolicyStore, Telemetry

from tracing import Stopwatch, Tracer, percentile
from workloads import (
    Check,
    Outcome,
    Workload,
    action_violations,
    build_fixture_snapshot,
    digest_of,
    engine_layers,
    latency_layers,
    serve_stage_layers,
)

#: Scenario cycle of ``fleet_onslicing``: the paper world,
#: ``lte_fixed_mcs`` (where Eq. 8 actually fires) and
#: ``transport_brownout`` (which gives diagnosis an incident).
ONSLICING_SCENARIOS = ("default", "lte_fixed_mcs", "transport_brownout")

class FleetWorkload(Workload):
    """Shared machinery; the two subclasses only pick sizes."""

    method = ""
    shards = 1
    #: Only ``fleet_onslicing`` reports per-scenario decide latency.
    family_latency = False

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.slo = default_slo_spec()
        self.spec = self._spec()
        self.store_dir = os.path.join(workdir, "store")
        self.snapshot_ref = ""

    def _spec(self) -> FleetSpec:
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        spec = self.spec
        return {"cells": spec.cells, "slots": spec.slots,
                "episodes": spec.episodes, "shards": self.shards,
                "scenarios": list(spec.scenario_cycle()),
                "snapshot": self.method}

    def expected_decisions(self) -> int:
        spec = self.spec
        scenarios = spec.resolve_scenarios()
        return sum(
            len(spec.cell_scenario(scenarios[cell.scenario])
                .build_config().slices)
            for cell in spec.cell_plans()) * spec.slots * spec.episodes

    # ---- set-up ------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        snapshot = build_fixture_snapshot(
            self.method, tracer, self.store_dir, self.tiny)
        self.snapshot_ref = snapshot.ref
        # throw-away mini-run: 2 cells x 6 slots, inline
        with tracer.span("setup.warmup"):
            warm = FleetSpec(name="e2e-warmup", cells=2,
                             scenarios=self.spec.scenario_cycle()[:2],
                             slots=6, seed=self.seed)
            run_fleet(warm, self.store_dir,
                      snapshot_ref=self.snapshot_ref, slo=self.slo)

    # ---- untraced body -----------------------------------------------

    def body(self, run_dir: str) -> Dict[str, object]:
        checkpoint_path = os.path.join(run_dir, "fleet.ckpt.jsonl")
        timeline_path = os.path.join(run_dir, "timeline.jsonl")
        start = time.perf_counter()
        report = run_fleet(
            self.spec, self.store_dir, snapshot_ref=self.snapshot_ref,
            shards=self.shards, engine="vector",
            checkpoint_path=checkpoint_path, slo=self.slo,
            slo_timeline=timeline_path)
        run_fleet_s = time.perf_counter() - start
        checkpoint = load_checkpoint(checkpoint_path)
        diagnosis = diagnose_fleet(
            checkpoint.results.values(), self.slo,
            fleet=self.spec.name, snapshot_ref=report.snapshot_ref,
            snapshot_digest=report.snapshot_digest)
        return {"report": report, "checkpoint": checkpoint,
                "diagnosis": diagnosis, "run_fleet_s": run_fleet_s,
                "checkpoint_path": checkpoint_path,
                "timeline_path": timeline_path}

    def seal(self, state: Dict[str, object]) -> Outcome:
        report = state["report"]
        results = state["checkpoint"].results
        cells = sorted((stats for result in results.values()
                        for stats in result.cells),
                       key=lambda stats: stats.cell)
        timeline_digest = state.get("timeline_digest")
        if timeline_digest is None:
            timeline_digest = IncidentTimeline.load(
                state["timeline_path"]).digest()
        return Outcome(
            decisions=report.decisions,
            digests={
                "report": report.digest,
                "cells": digest_of(s.decision_digest for s in cells),
                "timeline": timeline_digest,
                "diagnosis": state["diagnosis"].digest(),
            },
            quality={
                "sla_violation_pct": 100.0 * report.violation_rate,
                "resource_usage_pct": 100.0 * report.mean_usage,
            },
            timings={"run_fleet_s": state["run_fleet_s"]},
            state=state)

    def specific(self, outcome: Outcome,
                 watch: Stopwatch) -> Dict[str, float]:
        # from the run_fleet call to diagnosis done
        return {"decisions_per_s": outcome.decisions / watch.ref_s}

    # ---- traced driver -----------------------------------------------

    def traced(self, tracer: Tracer, run_dir: str,
               reference: Outcome) -> Outcome:
        spec = self.spec
        profiler = KernelProfiler()
        checkpoint_path = os.path.join(run_dir, "fleet.ckpt.jsonl")
        # The header pins spec, scenario definitions, snapshot and
        # shard count -- all equal to the reference run's, so its
        # first line is this run's header whatever the format is.
        with open(reference.state["checkpoint_path"], "r",
                  encoding="utf-8") as fh:
            header = fh.readline()
        matrices: List[np.ndarray] = []
        row_slots = 0
        start = time.perf_counter()
        with profiler:
            with tracer.span("serve.store_load"):
                snapshot = PolicyStore(self.store_dir).load(
                    self.snapshot_ref)
            # run_fleet re-derives the content digest where it plans,
            # writes the header, verifies each shard and reports; the
            # re-drive reads it at the same points so the ledger
            # carries the cost users pay
            with tracer.span("serve.snapshot_digest"):
                snapshot_digest = snapshot.digest
            with tracer.span("scenarios.build"):
                scenarios = spec.resolve_scenarios()
            with tracer.span("fleet.plan"):
                plans = plan_shards(
                    spec, self.shards, self.store_dir, snapshot.ref,
                    snapshot_digest, scenarios=scenarios,
                    engine="vector")
            with tracer.span("serve.snapshot_digest"):
                snapshot.digest
            with tracer.span("fleet.checkpoint_write"):
                out = open(checkpoint_path, "w", encoding="utf-8")
                out.write(header)
            try:
                for plan in plans:
                    with tracer.span("serve.snapshot_digest"):
                        if snapshot.digest != plan.snapshot_digest:
                            raise ValueError("snapshot changed")
                    result, rows = _drive_shard(
                        tracer, plan, snapshot, matrices)
                    row_slots += rows
                    with tracer.span("fleet.checkpoint_write"):
                        out.write(json.dumps(
                            {"kind": "shard", "shard": result.shard,
                             "result": to_jsonable(result)}) + "\n")
                        out.flush()
            finally:
                out.close()
            with tracer.span("fleet.checkpoint_load"):
                checkpoint = load_checkpoint(checkpoint_path)
            with tracer.span("obs.slo"):
                evaluator = evaluate_checkpoint_slo(
                    checkpoint, self.slo, timeline=IncidentTimeline())
            results = [checkpoint.results[shard]
                       for shard in sorted(checkpoint.results)]
            with tracer.span("serve.snapshot_digest"):
                snapshot.digest
            with tracer.span("fleet.report"):
                report = build_report(
                    spec, snapshot.ref, snapshot_digest, results,
                    shards=len(plans),
                    wall_time_s=time.perf_counter() - start)
            with tracer.span("obs.diagnose"):
                diagnosis = diagnose_fleet(
                    results, self.slo, fleet=spec.name,
                    snapshot_ref=snapshot.ref,
                    snapshot_digest=snapshot_digest)
        outcome = self.seal({
            "report": report, "checkpoint": checkpoint,
            "diagnosis": diagnosis, "run_fleet_s": 0.0,
            "checkpoint_path": checkpoint_path,
            "timeline_digest": evaluator.timeline.digest()})
        outcome.state.update(matrices=matrices, row_slots=row_slots,
                             kernels=profiler.report(),
                             slo_observes=len(results))
        return outcome

    # ---- per-layer readout -------------------------------------------

    def layers(self, tracer: Tracer, repeat: int, traced: Outcome,
               reference: Outcome) -> Dict[str, float]:
        out: Dict[str, float] = {}
        telemetry = Telemetry()
        for result in traced.state["checkpoint"].results.values():
            telemetry.merge(result.telemetry())
        out.update(serve_stage_layers(telemetry))
        decide = tracer.durations("serve.decide", repeat)
        out.update(latency_layers(decide))
        for scenario in self.spec.scenario_cycle():
            per = tracer.durations("serve.decide", repeat, tag=scenario)
            if self.family_latency and per:
                out[f"serve.decide_ms.p50.{scenario}"] = \
                    1e3 * percentile(per, 50.0)
                out[f"serve.decide_ms.p90.{scenario}"] = \
                    1e3 * percentile(per, 90.0)
        out.update(engine_layers(tracer, repeat, traced.state))
        out["obs.slo_n"] = float(traced.state["slo_observes"])
        out["obs.incidents"] = float(
            len(traced.state["diagnosis"].incidents))
        # what the untraced reference run's own exports say about the
        # coordinator (pool fan-out cannot be re-driven in-process)
        shard_s = [result.elapsed_s for result
                   in reference.state["checkpoint"].results.values()]
        out["fleet.shard_s.sum"] = float(sum(shard_s))
        out["fleet.shard_s.max"] = float(max(shard_s))
        out["fleet.shard_imbalance"] = float(
            max(shard_s) / (sum(shard_s) / len(shard_s)))
        out["fleet.pool_overhead_s"] = float(
            reference.timings["run_fleet_s"] - max(shard_s))
        out["fleet.checkpoint_bytes"] = float(os.path.getsize(
            reference.state["checkpoint_path"]))
        return out

    # ---- checks ------------------------------------------------------

    def extra_checks(self, runs: List[Outcome],
                     traced: Optional[Outcome]) -> List[Check]:
        checks = []
        first = runs[0]
        rebuilt = report_from_checkpoint(first.state["checkpoint"])
        checks.append(Check(
            "report_from_checkpoint digest == live report digest",
            rebuilt.digest == first.digests["report"],
            f"{rebuilt.digest[:12]} vs {first.digests['report'][:12]}",
            runs=(0,)))
        if traced is not None:
            bad = action_violations(traced.state["matrices"])
            checks.append(Check(
                "traced actions finite, in [0, 1], within capacity",
                bad == 0, f"{bad} of "
                f"{len(traced.state['matrices'])} batches out of "
                "contract", runs=(len(runs),)))
        return checks


def _drive_shard(tracer: Tracer, plan, snapshot,
                 matrices: List[np.ndarray]) -> Tuple[ShardResult, int]:
    """One shard plan through the documented lockstep drive mode.

    Mirrors ``run_fleet_shard`` with a span around every layer call;
    returns the shard's result and the engine row-slots it stepped.
    """
    start = time.perf_counter()
    generators: List[LoadGenerator] = []
    telemetries: List[Telemetry] = []
    tags: List[str] = []
    events: Dict[str, Tuple[Dict, ...]] = {}
    for cell in plan.cells:
        with tracer.span("scenarios.build"):
            scenario = plan.spec.cell_scenario(
                plan.scenarios[cell.scenario])
            if cell.scenario not in events:
                events[cell.scenario] = scenario.event_timeline()
        telemetry = Telemetry()
        telemetries.append(telemetry)
        tags.append(cell.scenario)
        with tracer.span("serve.init"):
            generators.append(LoadGenerator(
                snapshot, scenario, seed=cell.seed,
                telemetry=telemetry))
    if len(generators) < 2:
        raise ValueError("traced fleets need >= 2 cells per shard "
                         "(the lockstep drive mode)")
    episodes = plan.spec.episodes
    with tracer.span("engine.reset"):
        batch = BatchSimulator([g.simulator for g in generators],
                               engine=plan.engine)
    active = []
    for index, generator in enumerate(generators):
        with tracer.span("engine.reset"):
            observations = batch.reset_world(index)
        with tracer.span("serve.record"):
            generator.begin_run(episodes)
            generator.begin_episode(observations=observations)
        active.append(index)
    row_slots = 0
    begin, end = tracer.begin, tracer.end
    while active:
        actions = [None] * len(generators)
        for cell in active:
            span = begin("serve.decide", tags[cell])
            actions[cell] = generators[cell].serve_slot()
            end(span)
            matrices.append(actions[cell])
        span = begin("engine.step")
        step = batch.step(actions)
        end(span)
        row_slots += len(step.costs)
        span = begin("serve.record")
        still_active = []
        for i, cell in enumerate(active):
            generator = generators[cell]
            rows = step.rows_of(cell)
            names = step.names[i]
            generator.record_step(
                {n: float(step.costs[rows][j])
                 for j, n in enumerate(names)},
                {n: float(step.usages[rows][j])
                 for j, n in enumerate(names)},
                {n: step.observations[rows][j]
                 for j, n in enumerate(names)},
                {n: float(step.latencies[rows][j])
                 for j, n in enumerate(names)})
            if step.dones[i]:
                generator.end_episode()
                if generator.want_more_episodes:
                    with tracer.span("engine.reset"):
                        observations = batch.reset_world(cell)
                    generator.begin_episode(observations=observations)
                    still_active.append(cell)
            else:
                still_active.append(cell)
        end(span)
        active = still_active
    with tracer.span("serve.record"):
        reports = [generator.finish_run() for generator in generators]
    with tracer.span("obs.telemetry_merge"):
        aggregate = Telemetry()
        rows = []
        for cell, telemetry, report in zip(plan.cells, telemetries,
                                           reports):
            aggregate.merge(telemetry)
            aggregate.counter("cells").inc()
            rows.append(CellStats(
                cell=cell.cell, scenario=cell.scenario, seed=cell.seed,
                slices=report.slices, episodes=report.episodes,
                decisions=report.decisions, fallbacks=report.fallbacks,
                violation_rate=report.violation_rate,
                mean_usage=report.mean_usage,
                service_time_s=report.service_time_s,
                p50_latency_ms=report.p50_latency_ms,
                p99_latency_ms=report.p99_latency_ms,
                decision_digest=report.decision_digest))
        result = ShardResult(
            shard=plan.shard, cells=tuple(rows),
            counters={name: counter.value for name, counter
                      in aggregate.counters().items()},
            histograms={name: histogram.state() for name, histogram
                        in aggregate.histograms().items()},
            elapsed_s=time.perf_counter() - start, events=events)
    return result, row_slots


# ---------------------------------------------------------------------
# the two workloads
# ---------------------------------------------------------------------

class FleetOnslicing(FleetWorkload):
    name = "fleet_onslicing"
    method = "onslicing"
    shards = 1
    family_latency = True
    uses_networks = True

    def _spec(self) -> FleetSpec:
        if self.tiny:
            return FleetSpec(name="e2e-fleet-onslicing", cells=2,
                             scenarios=ONSLICING_SCENARIOS[:2],
                             slots=self.horizon, seed=self.seed)
        return FleetSpec(name="e2e-fleet-onslicing", cells=3,
                         scenarios=ONSLICING_SCENARIOS,
                         slots=self.horizon, seed=self.seed)


class FleetBaselineSharded(FleetWorkload):
    name = "fleet_baseline_sharded"
    method = "baseline"
    shards = 2

    def _spec(self) -> FleetSpec:
        if self.tiny:
            return FleetSpec(name="e2e-fleet-baseline", cells=4,
                             scenarios=ROBUSTNESS_MATRIX[:2],
                             slots=self.horizon, seed=self.seed)
        return FleetSpec(name="e2e-fleet-baseline", cells=64,
                         slots=self.horizon, episodes=2,
                         seed=self.seed)
