"""Scenario-driven load generation against the decision service.

:class:`LoadGenerator` closes the serving loop: it instantiates any
registered scenario from :mod:`repro.scenarios` (optionally re-populated
to N slices via :func:`~repro.scenarios.spec.population`), feeds every
slot's per-slice observations to a :class:`~repro.serve.service
.SlicingService` as one decision batch, applies the returned
allocations to the simulator, and reports what a load test should:
decisions/sec, p50/p99 decision latency, the SLA-violation rate of the
traffic actually served, and the fallback rate.

Throughput is measured over *service* time (the ``decide()`` calls),
not simulator time -- the simulator is the client here.  Reports carry
a ``decision_digest`` (SHA-256 over every action served, in order) so
two runs from the same snapshot and seed can be byte-compared: the CI
smoke job replays 100 decisions twice and asserts the digests match.

A generator exposes an incremental API (``begin_run`` /
``begin_episode`` / ``serve_slot`` / ``record_step`` /
``end_episode`` / ``finish_run``) and :func:`drive_lockstep` is the one
loop over it: ``run()`` drives one cell, a fleet shard drives all its
cells through one :class:`~repro.engine.batch.BatchSimulator`, and each
cell keeps its own service, accounting and digest either way.
Per-slice observation buffers are reused across slots (the service
copies states before inference), so steady-state serving allocates
nothing per decision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import ExperimentConfig
from repro.engine.batch import BatchSimulator
from repro.obs.metrics import Telemetry
from repro.obs.slo import SloEvaluator
from repro.scenarios.spec import ScenarioSpec, population
from repro.serve.policy_store import PolicySnapshot
from repro.serve.service import DecisionRequest, SlicingService
from repro.sim.env import STATE_DIM

#: Telemetry-flush interval (in served slots) at which an attached
#: :class:`~repro.obs.slo.SloEvaluator` re-reads the registry.
DEFAULT_SLO_EVERY = 16


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run."""

    scenario: str
    slices: int
    episodes: int
    decisions: int
    fallbacks: int
    service_time_s: float
    wall_time_s: float
    decisions_per_sec: float
    p50_latency_ms: float
    p99_latency_ms: float
    mean_usage: float               # mean per-slot usage in [0, 1]
    violation_rate: float           # fraction of (episode, slice) pairs
    fallback_rate: float
    decision_digest: str            # SHA-256 over every served action
    per_slice_usage: Dict[str, float] = field(default_factory=dict)
    per_slice_violation: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat summary for CLI/JSON output."""
        out = dataclasses.asdict(self)
        del out["per_slice_usage"], out["per_slice_violation"]
        return out


def scenario_with_population(spec: ScenarioSpec,
                             slices: Optional[int]) -> ScenarioSpec:
    """Re-target a scenario spec at an N-slice population.

    ``None`` keeps the spec's own population.  The derived spec keeps
    the traffic model and event timeline -- only the slice population
    (and hence the per-slice arrival derating) changes.
    """
    if slices is None:
        return spec
    return dataclasses.replace(spec, slices=population(slices))


class LoadGenerator:
    """Drive a service with a scenario's traffic at a slice count."""

    def __init__(self, snapshot: PolicySnapshot, scenario,
                 slices: Optional[int] = None,
                 seed: Optional[int] = None,
                 eta: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None,
                 trace_attrs: Optional[Dict[str, object]] = None,
                 slo: Optional[SloEvaluator] = None,
                 slo_every: int = DEFAULT_SLO_EVERY
                 ) -> None:
        from repro.experiments.harness import resolve_scenario

        spec = resolve_scenario(scenario)
        if spec is None:
            raise ValueError("load generation needs a named scenario "
                             "or a ScenarioSpec")
        self.spec = scenario_with_population(spec, slices)
        # None defers to the scenario's own seed everywhere, so a unit
        # evaluation and a CLI run of the same spec agree exactly.
        self.cfg: ExperimentConfig = self.spec.build_config(seed=seed)
        self.seed = self.cfg.seed
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.service = SlicingService(
            snapshot, cfg=self.cfg, eta=eta, telemetry=self.telemetry,
            rng_seed=self.seed, trace_attrs=trace_attrs)
        self.simulator = self.spec.build_simulator(
            self.cfg, rng=np.random.default_rng(self.cfg.seed))
        self.slo = slo
        if slo_every < 1:
            raise ValueError("slo_every must be >= 1")
        self.slo_every = slo_every
        self._apps = {spec.name: spec.app for spec in self.cfg.slices}

    # ---- incremental driving API ------------------------------------
    #
    # What `drive_lockstep` (and any outside driver re-tracing it)
    # calls per cell.

    def begin_run(self, episodes: int = 1,
                  max_decisions: Optional[int] = None) -> None:
        """Arm the accounting of a new run."""
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self._episodes_wanted = episodes
        self._max_decisions = max_decisions
        self._digest = hashlib.sha256()
        self._decisions_served = 0
        self._fallbacks = 0
        self._service_time = 0.0
        self._episodes_run = 0
        self._per_slice_usage: Dict[str, List[float]] = {}
        self._per_slice_violation: Dict[str, List[float]] = {}
        self._wall_start = time.perf_counter()
        self._stopped = False
        self._totals: Dict[str, Dict[str, float]] = {}
        # per-slice observation buffers, reused across slots (the
        # service stacks/copies states before inference, so reuse is
        # safe within and across slots)
        self._states: Dict[str, np.ndarray] = {}
        self._slots_recorded = 0
        # instrument handles cached once per run: record_step runs per
        # slot and instrument_key would otherwise re-render labels on
        # every observation
        tel = self.telemetry
        self._latency_hist = tel.histogram("slice_latency_ms")
        self._latency_by_app = {
            app: tel.histogram("slice_latency_ms", {"app": app})
            for app in sorted(set(self._apps.values()))}
        self._slot_counter = tel.counter("slice_slots")
        self._cost_counter = tel.counter("slice_cost_total")
        self._sla_episodes = tel.counter("sla_episodes")
        self._sla_violations = tel.counter("sla_violations")
        # per-app SLA taxonomy, mirroring the latency-by-app split, so
        # diagnosis can tell which application template is breaching
        apps = sorted(set(self._apps.values()))
        self._sla_episodes_by_app = {
            app: tel.counter("sla_episodes", {"app": app})
            for app in apps}
        self._sla_violations_by_app = {
            app: tel.counter("sla_violations", {"app": app})
            for app in apps}

    @property
    def want_more_episodes(self) -> bool:
        return (not self._stopped
                and self._episodes_run < self._episodes_wanted)

    def begin_episode(self, observations: np.ndarray) -> None:
        """Start one episode from the initial observation rows
        (``slice_names`` order) of the simulator the driver just
        reset."""
        self.service.begin_episode()   # re-arm the one-way fallback
        names = self.simulator.slice_names
        self._totals = {name: {"cost": 0.0, "usage": 0.0, "slots": 0}
                        for name in names}
        for name, row in zip(names, observations):
            buffer = self._states.get(name)
            if buffer is None:
                buffer = self._states[name] = np.empty(STATE_DIM)
            buffer[:] = row

    def serve_slot(self) -> Dict[str, np.ndarray]:
        """One decision batch: requests from the held observations,
        through the service, into the run digest.  Returns the
        actions to apply to the simulator."""
        names = self.simulator.slice_names
        requests = [
            DecisionRequest(slice_name=name, state=self._states[name])
            for name in names
        ]
        t0 = time.perf_counter()
        decisions = self.service.decide(requests)
        self._service_time += time.perf_counter() - t0
        for name in sorted(decisions):
            decision = decisions[name]
            self._digest.update(name.encode("utf-8"))
            self._digest.update(np.ascontiguousarray(
                decision.action, dtype=np.float64).tobytes())
            self._fallbacks += decision.fallback
        self._decisions_served += len(decisions)
        if (self._max_decisions is not None
                and self._decisions_served >= self._max_decisions):
            self._stopped = True
        return {name: decision.action
                for name, decision in decisions.items()}

    def record_step(self, costs: Dict[str, float],
                    usages: Dict[str, float],
                    observations: Dict[str, np.ndarray],
                    latencies: Optional[Dict[str, float]] = None
                    ) -> None:
        """Fold one slot's outcome into the episode totals and update
        the held observation buffers.

        ``latencies`` carries each slice's simulated end-to-end slot
        latency (transport + core + edge, ms) -- a *deterministic*
        signal, unlike the wall-clock ``decision_latency_ms``, which
        is what makes latency-SLO incident timelines reproducible.
        """
        for name, cost in costs.items():
            totals = self._totals[name]
            totals["cost"] += cost
            totals["usage"] += usages[name]
            totals["slots"] += 1
            self._states[name][:] = observations[name]
            self._slot_counter.inc()
            self._cost_counter.inc(max(float(cost), 0.0))
            if latencies is not None:
                latency = float(latencies[name])
                self._latency_hist.observe(latency)
                app = self._apps.get(name)
                if app is not None:
                    self._latency_by_app[app].observe(latency)
        self._slots_recorded += 1
        if (self.slo is not None
                and self._slots_recorded % self.slo_every == 0):
            self.slo.observe(self.telemetry,
                             at=float(self._slots_recorded))

    def end_episode(self) -> None:
        """Close one episode's per-slice SLA accounting."""
        self._episodes_run += 1
        for spec in self.cfg.slices:
            slots = self._totals[spec.name]["slots"]
            if slots == 0:
                continue
            mean_cost = self._totals[spec.name]["cost"] / slots
            mean_usage = self._totals[spec.name]["usage"] / slots
            violated = float(spec.sla.violated(mean_cost))
            self._per_slice_usage.setdefault(spec.name, []).append(
                mean_usage)
            self._per_slice_violation.setdefault(
                spec.name, []).append(violated)
            self._sla_episodes.inc()
            app = self._apps.get(spec.name)
            if app is not None:
                self._sla_episodes_by_app[app].inc()
            if violated:
                self._sla_violations.inc()
                if app is not None:
                    self._sla_violations_by_app[app].inc()

    def finish_run(self) -> LoadReport:
        """Assemble the :class:`LoadReport` of the driven run."""
        wall_time = time.perf_counter() - self._wall_start
        usage = {name: float(np.mean(vals))
                 for name, vals in self._per_slice_usage.items()}
        violation = {name: float(np.mean(vals))
                     for name, vals in self._per_slice_violation.items()}
        latency = self.telemetry.histogram("decision_latency_ms")
        decisions_served = self._decisions_served
        return LoadReport(
            scenario=self.spec.name,
            slices=len(self.cfg.slices),
            episodes=self._episodes_run,
            decisions=decisions_served,
            fallbacks=int(self._fallbacks),
            service_time_s=self._service_time,
            wall_time_s=wall_time,
            decisions_per_sec=(decisions_served / self._service_time
                               if self._service_time > 0 else 0.0),
            p50_latency_ms=latency.percentile(50.0),
            p99_latency_ms=latency.percentile(99.0),
            mean_usage=(float(np.mean(list(usage.values())))
                        if usage else 0.0),
            violation_rate=(float(np.mean(list(violation.values())))
                            if violation else 0.0),
            fallback_rate=(self._fallbacks / decisions_served
                           if decisions_served else 0.0),
            decision_digest=self._digest.hexdigest(),
            per_slice_usage=usage,
            per_slice_violation=violation)

    def run(self, episodes: int = 1,
            max_decisions: Optional[int] = None) -> LoadReport:
        """Serve ``episodes`` full episodes (or stop after
        ``max_decisions`` decisions, mid-episode if need be)."""
        drive_lockstep([self], episodes, max_decisions)
        return self.finish_run()


def drive_lockstep(generators: List[LoadGenerator], episodes: int = 1,
                   max_decisions: Optional[int] = None) -> None:
    """Advance every cell's episodes through one batched engine.

    Each slot serves every active cell's decision batch through its
    own :class:`~repro.serve.service.SlicingService` (per-cell
    fallback state, coordination and digests untouched), then steps
    all cells' simulators in one kernel evaluation.  Cells with
    shorter horizons roll into their next episode independently, and
    a cell that has served ``max_decisions`` stops after recording
    the slot it decided.  Callers read each cell's ``finish_run()``.
    """
    batch = BatchSimulator([g.simulator for g in generators])
    active = []
    for index, generator in enumerate(generators):
        generator.begin_run(episodes, max_decisions)
        generator.begin_episode(observations=batch.reset_world(index))
        active.append(index)
    while active:
        actions = [None] * len(generators)
        for cell in active:
            actions[cell] = generators[cell].serve_slot()
        step = batch.step(actions)
        still_active = []
        for i, cell in enumerate(active):
            generator = generators[cell]
            rows = step.rows_of(cell)
            names = step.names[i]
            generator.record_step(
                dict(zip(names, step.costs[rows].tolist())),
                dict(zip(names, step.usages[rows].tolist())),
                dict(zip(names, step.observations[rows])),
                dict(zip(names, step.latencies[rows].tolist())))
            if not step.dones[i] and not generator._stopped:
                still_active.append(cell)
                continue
            generator.end_episode()
            if generator.want_more_episodes:
                generator.begin_episode(
                    observations=batch.reset_world(cell))
                still_active.append(cell)
        active = still_active
