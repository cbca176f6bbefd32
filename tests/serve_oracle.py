"""The per-cell serving loop as it stood at commit 586b22d, kept as the
test oracle for the row-wise decision core (the ``tests/scalar_oracle.py``
precedent).

Everything below the imports is verbatim from that commit's
``src/repro/serve/service.py`` (``SlicingService``: ``decide`` /
``_propose`` / ``_fallback_flags`` / ``_coordinate``, one call per cell
and slot, per-request objects, a ``ParameterCoordinator`` and a
``_switched`` set per service) and ``src/repro/serve/loadgen.py``
(``LoadGenerator`` with its per-name ``_totals`` / ``_states`` dicts,
``serve_slot`` / ``record_step``, and ``drive_lockstep`` rebuilding four
dicts per cell and slot).  ``tests/test_serve_rows.py`` holds the
row-wise path to it: same reports, digests, telemetry and generator
state.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.config import ExperimentConfig
from repro.domains.coordinator import ParameterCoordinator
from repro.engine.batch import BatchSimulator
from repro.obs.metrics import Telemetry
from repro.obs.slo import SloEvaluator
from repro.obs.trace import trace
from repro.serve.loadgen import (
    DEFAULT_SLO_EVERY,
    LoadReport,
    scenario_with_population,
)
from repro.serve.policy_store import PolicySnapshot
from repro.serve.service import (
    DECISION_STAGES,
    Decision,
    DecisionRequest,
    _LearnedPolicy,
)
from repro.sim.env import STATE_DIM
from repro.sim.network import CONSTRAINED_RESOURCES


class SlicingService:
    """Batched, safety-aware decision service over a policy snapshot.

    Parameters
    ----------
    snapshot:
        The :class:`PolicySnapshot` to serve.
    cfg:
        The *target* deployment config (slice population, SLAs,
        horizon).  Defaults to the snapshot's training config; the load
        generator passes the scenario config so a 3-slice snapshot can
        serve a ``population(50)`` cell.
    eta:
        Risk preference of the fallback criterion (Eq. 8); defaults to
        the snapshot config's switching eta.
    trace_attrs:
        Attributes stamped onto every span this service emits (the
        fleet layer passes ``cell``/``scenario`` so traces attribute
        per cell); ignored while tracing is off.
    slo / slo_every:
        Optional streaming :class:`~repro.obs.slo.SloEvaluator`:
        every ``slo_every`` decision batches the service's telemetry
        is evaluated at logical time = its ``batches`` counter value,
        appending burn-rate transitions to the evaluator's incident
        timeline.  The batch counter is a logical axis, so embedders
        that replay identical request streams get identical timelines.
    anomaly:
        Optional :class:`~repro.obs.anomaly.AnomalyMonitor`, stepped
        on the same ``slo_every`` cadence and logical axis as ``slo``
        (either may be set without the other) -- the serve-side feed
        for the ``obs watch`` anomalies pane.
    """

    def __init__(self, snapshot: PolicySnapshot,
                 cfg: Optional[ExperimentConfig] = None,
                 eta: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None,
                 max_coordination_rounds: int = 8,
                 tolerance: float = 1e-3,
                 rng_seed: Optional[int] = None,
                 trace_attrs: Optional[Mapping[str, object]] = None,
                 slo=None,
                 slo_every: int = 64,
                 anomaly=None) -> None:
        self.snapshot = snapshot
        self.cfg = cfg if cfg is not None else snapshot.config
        self.eta = eta if eta is not None \
            else snapshot.config.agent.switching.eta
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.horizon = self.cfg.traffic.slots_per_episode
        self._rng = np.random.default_rng(
            snapshot.seed if rng_seed is None else rng_seed)
        self._coordinator = ParameterCoordinator(
            CONSTRAINED_RESOURCES,
            step_size=self.cfg.agent.modifier.coordinator_step_size)
        self._max_rounds = max_coordination_rounds
        self._tolerance = tolerance
        self._trace_attrs = dict(trace_attrs or {})
        if slo_every < 1:
            raise ValueError("slo_every must be >= 1")
        self.slo = slo
        self.anomaly = anomaly
        self._slo_every = int(slo_every)
        #: Lazily-created ``fallbacks{cause=...}`` counters: created
        #: only when a cause is first seen, so snapshots of healthy
        #: services carry no zero-valued taxonomy instruments.
        self._fallback_causes: Dict[str, object] = {}
        self._policies: Dict[str, _LearnedPolicy] = {}
        if snapshot.method in ("onslicing", "onrl"):
            for name, payload in snapshot.policies.items():
                self._policies[name] = _LearnedPolicy(
                    name, payload, snapshot.config, self._rng)
        #: target slice name -> (policy key, per-slice act callable or
        #: None for learned/batched policies)
        self._routes = self._build_routes()
        #: Slices pi_b has taken over for the rest of the episode --
        #: the paper's one-way door (Sec. 3); cleared by
        #: :meth:`begin_episode`.
        self._switched: set = set()

    def begin_episode(self) -> None:
        """Re-arm the safe fallback at an episode boundary.

        Within an episode the Eq. 8 switch is a one-way door ("let the
        baseline policy take over the rest of the episode"); episode-
        aware drivers (the load generator, an operator's day rollover)
        call this at each reset.
        """
        self._switched.clear()

    def _count_fallback(self, name: str) -> None:
        """Attribute one fallback decision to its cause: a fresh Eq. 8
        trigger (``eq8``) or the one-way door holding a previously
        switched slice on pi_b (``latched``).  Callers invoke this
        *before* latching ``name`` into ``_switched``."""
        cause = "latched" if name in self._switched else "eq8"
        counter = self._fallback_causes.get(cause)
        if counter is None:
            counter = self.telemetry.counter("fallbacks",
                                             {"cause": cause})
            self._fallback_causes[cause] = counter
        counter.inc()

    # ---- routing -----------------------------------------------------

    def _build_routes(self) -> Dict[str, Tuple[str, Optional[object]]]:
        """Map every target slice onto a snapshot policy.

        Exact name matches win; otherwise target slices cycle through
        the snapshot policies trained for the same app template, so a
        3-slice snapshot spreads evenly over a 50-slice population.
        """
        by_app: Dict[str, List[str]] = {}
        for name, payload in self.snapshot.policies.items():
            by_app.setdefault(payload["app"], []).append(name)
        app_counter: Dict[str, int] = {}
        routes: Dict[str, Tuple[str, Optional[object]]] = {}
        for spec in self.cfg.slices:
            if spec.name in self.snapshot.policies:
                key = spec.name
            else:
                candidates = by_app.get(spec.app)
                if not candidates:
                    raise ValueError(
                        f"snapshot {self.snapshot.ref} has no policy "
                        f"for app {spec.app!r} (slice {spec.name!r})")
                index = app_counter.get(spec.app, 0)
                app_counter[spec.app] = index + 1
                key = candidates[index % len(candidates)]
            if self.snapshot.method == "model_based":
                # analytic policies depend on the *target* slice spec
                # (arrival-rate scale), so build one per slice
                routes[spec.name] = (key, ModelBasedPolicy(
                    spec, self.cfg.network))
            elif self.snapshot.method == "baseline":
                routes[spec.name] = (
                    key, self.snapshot.policies[key]["baseline"])
            else:
                routes[spec.name] = (key, None)
        return routes

    @property
    def slice_names(self) -> List[str]:
        return list(self._routes)

    # ---- deciding ----------------------------------------------------

    def decide(self, requests: Sequence[DecisionRequest]
               ) -> Dict[str, Decision]:
        """Serve one batch of per-slice requests.

        Returns a decision per request.  The whole batch is treated as
        one slot of one cell: allocations are coordinated jointly, so
        callers should batch the slices that share infrastructure.
        """
        if not requests:
            return {}
        start = time.perf_counter()
        stages = dict.fromkeys(DECISION_STAGES, 0.0)
        with trace("serve.decide", **self._trace_attrs):
            proposed = self._propose(requests, stages)
            actions = {name: action
                       for name, (action, _, _) in proposed.items()}
            t0 = time.perf_counter()
            with trace("serve.coordinate", **self._trace_attrs):
                coordinated, rounds, projected = \
                    self._coordinate(actions)
            stages["coordinate"] = time.perf_counter() - t0
            decisions = {
                name: Decision(slice_name=name,
                               action=coordinated[name],
                               fallback=fallback, policy=policy)
                for name, (_, fallback, policy) in proposed.items()
            }
        elapsed_ms = (time.perf_counter() - start) * 1e3
        tel = self.telemetry
        tel.counter("decisions").inc(len(requests))
        tel.counter("batches").inc()
        tel.counter("fallbacks").inc(
            sum(d.fallback for d in decisions.values()))
        if projected:
            tel.counter("projections").inc()
        # Admission taxonomy: every request in the batch was admitted,
        # either at the coordinator's prices alone or only after the
        # final capacity projection clipped the batch.
        tel.counter("admissions",
                    {"outcome": "projected" if projected
                     else "priced"}).inc(len(requests))
        tel.histogram("batch_size").observe(len(requests))
        tel.histogram("batch_latency_ms").observe(elapsed_ms)
        tel.histogram("decision_latency_ms").observe(
            elapsed_ms / len(requests))
        tel.histogram("coordination_rounds").observe(rounds)
        for stage, seconds in stages.items():
            tel.histogram(f"stage_{stage}_ms").observe(seconds * 1e3)
        if self.slo is not None or self.anomaly is not None:
            batches = tel.counter("batches").value
            if batches % self._slo_every == 0:
                if self.slo is not None:
                    self.slo.observe(tel, at=float(batches))
                if self.anomaly is not None:
                    self.anomaly.observe(tel, at=float(batches))
        return decisions

    def decide_one(self, request: DecisionRequest) -> Decision:
        return self.decide([request])[request.slice_name]

    def _validated_state(self, request: DecisionRequest) -> np.ndarray:
        if request.slice_name not in self._routes:
            raise KeyError(f"unknown slice {request.slice_name!r}; "
                           f"service slices: {self.slice_names}")
        state = np.asarray(request.state, dtype=np.float64)
        if state.shape != (STATE_DIM,):
            raise ValueError(
                f"state for {request.slice_name!r} must have shape "
                f"({STATE_DIM},), got {state.shape}")
        return state

    def _propose(self, requests: Sequence[DecisionRequest],
                 stages: Dict[str, float]
                 ) -> Dict[str, Tuple[np.ndarray, bool, str]]:
        """Group requests by snapshot policy; one forward per group.

        Returns pre-coordination ``(action, fallback, policy key)``
        per slice; :meth:`decide` coordinates and wraps the results.
        ``stages`` accumulates per-stage seconds: validation, routing
        and table-policy reads count as *assemble*, the vectorised
        pi_theta pass as *forward*, Eq. 8 plus pi_b substitution as
        *fallback*.
        """
        groups: Dict[str, List[Tuple[str, np.ndarray]]] = {}
        proposed: Dict[str, Tuple[np.ndarray, bool, str]] = {}
        t0 = time.perf_counter()
        with trace("serve.assemble", **self._trace_attrs):
            for request in requests:
                state = self._validated_state(request)
                key, table_policy = self._routes[request.slice_name]
                if table_policy is not None:
                    # rule-based / analytic policies have no network to
                    # batch; each request is a table read or a closed
                    # form, the one-row case of their batch form
                    proposed[request.slice_name] = (
                        np.asarray(table_policy.act_vector(state),
                                   dtype=float), False, key)
                else:
                    groups.setdefault(key, []).append(
                        (request.slice_name, state))
        stages["assemble"] += time.perf_counter() - t0
        for key, entries in groups.items():
            t0 = time.perf_counter()
            policy = self._policies[key]
            states = np.stack([state for _, state in entries])
            with trace("serve.forward", **self._trace_attrs):
                actions = policy.act_rows(states)
            t1 = time.perf_counter()
            with trace("serve.fallback", **self._trace_attrs):
                flags = self._fallback_flags(policy, states)
                for i, (name, state) in enumerate(entries):
                    fallback = name in self._switched or bool(flags[i])
                    if fallback:
                        self._count_fallback(name)
                        self._switched.add(name)
                        action = np.asarray(
                            policy.baseline.act_vector(state),
                            dtype=float)
                    else:
                        action = actions[i]
                    proposed[name] = (action, fallback, key)
            t2 = time.perf_counter()
            stages["forward"] += t1 - t0
            stages["fallback"] += t2 - t1
        return proposed

    def _fallback_flags(self, policy: _LearnedPolicy,
                        states: np.ndarray) -> np.ndarray:
        """Eq. 8 per state: cumulative cost + pi_phi posterior beyond
        the episode budget means pi_b must take over (callers latch
        the flag for the rest of the episode)."""
        if policy.estimator is None or policy.baseline is None:
            return np.zeros(len(states), dtype=bool)
        mu, sigma = policy.cost_to_go(states)
        thresholds = states[:, 7] * self.horizon       # T * C_max
        cumulative = states[:, 8] * thresholds         # de-normalised
        expected = cumulative + mu + self.eta * sigma
        return expected >= thresholds

    # ---- coordination -------------------------------------------------

    #: Constrained action columns, in CONSTRAINED_RESOURCES order.
    _KINDS = tuple(CONSTRAINED_RESOURCES)
    _KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(),
                                dtype=np.intp)

    def _coordinate(self, proposals: Mapping[str, np.ndarray]
                    ) -> Tuple[Dict[str, np.ndarray], int, bool]:
        """Price the batch's allocations into capacity (Eq. 14).

        The coordinator raises ``beta_k`` while resource ``k`` is
        over-requested (warm-started across slots); allocations respond
        as price-takers, ``a_k = proposal_k / (1 + beta_k)``.  The loop
        runs vectorised over the whole batch -- one (n, kinds) slice
        per round, no per-slice python work.  A final projection
        guarantees feasibility after ``max_rounds`` -- infrastructure
        capacity is physical.
        """
        names = list(proposals)
        matrix = np.stack([np.asarray(proposals[name], dtype=float)
                           for name in names])
        requested = matrix[:, self._KIND_COLUMNS]
        coordinator = self._coordinator
        betas = coordinator.begin_slot()
        prices = np.array([betas[kind] for kind in self._KINDS])
        allocated = requested / (1.0 + prices)
        totals = allocated.sum(axis=0)
        rounds = 1
        capacity = coordinator.capacity + self._tolerance
        while np.any(totals > capacity):
            if rounds >= self._max_rounds:
                break
            rounds += 1
            betas = coordinator.update(dict(zip(self._KINDS, totals)))
            prices = np.array([betas[kind] for kind in self._KINDS])
            allocated = requested / (1.0 + prices)
            totals = allocated.sum(axis=0)
        projected = bool(np.any(totals > capacity))
        if projected:
            scale = np.where(totals > capacity,
                             coordinator.capacity
                             / np.maximum(totals, 1e-12), 1.0)
            allocated = allocated * scale
        matrix = matrix.copy()
        matrix[:, self._KIND_COLUMNS] = allocated
        return ({name: matrix[i] for i, name in enumerate(names)},
                rounds, projected)


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
