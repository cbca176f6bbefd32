"""``serve_dense``: the serve layer at large batches, no simulator in
the loop.

Set-up records observation vectors from ``lte_fixed_mcs`` at
``population(64)`` under a constant 0.3 action (public
``ScenarioSimulator.reset/step``); the body replays them through one
``SlicingService`` with SLO and anomaly observers at every batch and
a client timer around each ``decide()``.  The same serve code as
``fleet_onslicing`` at ~21 rows per policy group instead of 1: a
per-call-overhead win that costs big-batch throughput (or the
reverse) shows as opposite moves on the two.

The traced driver builds the service *without* observers and calls
``SloEvaluator.observe`` / ``AnomalyMonitor.observe`` itself at the
same ``at=`` values, so observer cost gets its own spans; equal
timeline digests prove the two arrangements equivalent.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from repro import scenarios
from repro.config import NUM_ACTIONS, TrafficConfig, usage_from_action
from repro.obs.anomaly import AnomalyMonitor
from repro.obs.slo import SloEvaluator, default_slo_spec
from repro.serve import (
    DecisionRequest,
    PolicyStore,
    SlicingService,
    scenario_with_population,
)

from tracing import Stopwatch, Tracer
from workloads import (
    Check,
    Outcome,
    Workload,
    action_violations,
    build_fixture_snapshot,
    digest_of,
    latency_layers,
    serve_stage_layers,
)

#: The constant allocation the recording episodes run under.
RECORD_ACTION = 0.3


class ServeDense(Workload):
    name = "serve_dense"
    uses_networks = True

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.slices = 8 if tiny else 64
        self.episodes = 1 if tiny else 2
        self.store_dir = os.path.join(workdir, "store")
        self.slo_spec = default_slo_spec()
        spec = scenario_with_population(
            scenarios.get("lte_fixed_mcs"), self.slices)
        traffic = spec.traffic_cfg if spec.traffic_cfg is not None \
            else TrafficConfig()
        self.spec = dataclasses.replace(
            spec, traffic_cfg=dataclasses.replace(
                traffic, slots_per_episode=self.horizon))

    def sizes(self) -> Dict[str, object]:
        return {"scenario": "lte_fixed_mcs", "slices": self.slices,
                "episodes": self.episodes, "slots": self.horizon,
                "batches": self.episodes * self.horizon,
                "snapshot": "onslicing"}

    def expected_decisions(self) -> int:
        return self.episodes * self.horizon * self.slices

    # ---- set-up ------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        snapshot = build_fixture_snapshot(
            "onslicing", tracer, self.store_dir, self.tiny)
        with tracer.span("serve.store_load"):
            self.snapshot = PolicyStore(self.store_dir).load(
                snapshot.ref)
        with tracer.span("scenarios.build"):
            self.cfg = self.spec.build_config(seed=self.seed)
            simulator = self.spec.build_simulator(
                self.cfg, rng=np.random.default_rng(self.seed))
        with tracer.span("setup.record"):
            self.requests = self._record(simulator)
        with tracer.span("setup.warmup"):
            service = self._service(observers=True)
            for batch in self.requests[0][:6]:
                service.decide(batch)

    def _record(self, simulator) -> List[List[List[DecisionRequest]]]:
        """``requests[episode][slot]`` = that slot's decision batch."""
        action = np.full(NUM_ACTIONS, RECORD_ACTION)
        episodes = []
        for _ in range(self.episodes):
            observations = simulator.reset()
            names = simulator.slice_names
            actions = {name: action for name in names}
            slots = []
            while not simulator.done:
                slots.append([
                    DecisionRequest(name, observations[name].vector())
                    for name in names])
                results = simulator.step(actions)
                observations = {name: result.observation
                                for name, result in results.items()}
            episodes.append(slots)
        return episodes

    def _service(self, observers: bool):
        if not observers:
            return SlicingService(self.snapshot, cfg=self.cfg,
                                  rng_seed=self.seed)
        return SlicingService(
            self.snapshot, cfg=self.cfg, rng_seed=self.seed,
            slo=SloEvaluator(self.slo_spec), slo_every=1,
            anomaly=AnomalyMonitor())

    # ---- untraced body -----------------------------------------------

    def body(self, run_dir: str) -> Dict[str, object]:
        service = self._service(observers=True)
        latencies: List[float] = []
        served = []
        clock = time.perf_counter
        for episode in self.requests:
            service.begin_episode()
            for batch in episode:
                start = clock()
                decisions = service.decide(batch)
                latencies.append(clock() - start)
                served.append(decisions)
        return {"served": served, "latencies": latencies,
                "telemetry": service.telemetry,
                "timeline": service.slo.timeline,
                "anomalies": service.anomaly.anomalies()}

    def seal(self, state: Dict[str, object]) -> Outcome:
        served = state["served"]
        matrices = [np.stack([batch[name].action
                              for name in sorted(batch)])
                    for batch in served]
        fallbacks = [[batch[name].fallback for name in sorted(batch)]
                     for batch in served]
        usage = float(np.mean([usage_from_action(matrix)
                               for matrix in matrices]))
        state["matrices"] = matrices
        state["incidents"] = sum(
            1 for record in state["timeline"].records
            if record["event"] == "open")
        return Outcome(
            decisions=sum(len(batch) for batch in served),
            digests={
                "decisions": digest_of(
                    part for matrix, flags in zip(matrices, fallbacks)
                    for part in (matrix, flags)),
                "timeline": state["timeline"].digest(),
                "anomalies": digest_of([state["anomalies"]]),
            },
            quality={"resource_usage_pct": 100.0 * usage},
            timings={"decide_s": state["latencies"]},
            state=state)

    def specific(self, outcome: Outcome,
                 watch: Stopwatch) -> Dict[str, float]:
        return {"decisions_per_s": outcome.decisions / watch.ref_s,
                "decide_ms_p50": 1e3 * watch.scale
                * statistics.median(outcome.timings["decide_s"])}

    # ---- traced driver -----------------------------------------------

    def traced(self, tracer: Tracer, run_dir: str,
               reference: Outcome) -> Outcome:
        with tracer.span("serve.init"):
            service = self._service(observers=False)
        evaluator = SloEvaluator(self.slo_spec)
        monitor = AnomalyMonitor()
        telemetry = service.telemetry
        served = []
        begin, end = tracer.begin, tracer.end
        batches = 0
        for episode in self.requests:
            service.begin_episode()
            for batch in episode:
                span = begin("serve.decide")
                decisions = service.decide(batch)
                end(span)
                served.append(decisions)
                batches += 1
                span = begin("obs.slo")
                evaluator.observe(telemetry, at=float(batches))
                end(span)
                span = begin("obs.anomaly")
                monitor.observe(telemetry, at=float(batches))
                end(span)
        return self.seal({
            "served": served,
            "latencies": tracer.durations("serve.decide",
                                          tracer.repeat),
            "telemetry": telemetry, "timeline": evaluator.timeline,
            "anomalies": monitor.anomalies()})

    def layers(self, tracer: Tracer, repeat: int, traced: Outcome,
               reference: Outcome) -> Dict[str, float]:
        out = serve_stage_layers(traced.state["telemetry"])
        out.update(latency_layers(
            tracer.durations("serve.decide", repeat)))
        out["obs.slo_n"] = float(len(
            tracer.durations("obs.slo", repeat)))
        out["obs.incidents"] = float(traced.state["incidents"])
        return out

    def extra_checks(self, runs: List[Outcome],
                     traced: Optional[Outcome]) -> List[Check]:
        if traced is None:
            return []
        bad = action_violations(traced.state["matrices"])
        return [Check(
            "traced actions finite, in [0, 1], within capacity",
            bad == 0, f"{bad} of {len(traced.state['matrices'])} "
            "batches out of contract", runs=(len(runs),))]
