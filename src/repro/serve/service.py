"""The online slicing decision service.

:class:`SlicingService` is the paper's controller turned into a
serving component: it accepts per-slice state requests, micro-batches
them into single vectorised forward passes per policy
(:meth:`~repro.nn.network.MLP.predict_batch`), enforces the paper's
safe fallback -- when the pi_phi cost estimator predicts an episode
SLA violation (Eq. 8) the slice is routed to the rule-based baseline
pi_b for the *rest of the episode* (the one-way door of Sec. 3;
:meth:`SlicingService.begin_episode` re-arms it) -- and coordinates
the batch's allocations
through the existing :class:`~repro.domains.coordinator
.ParameterCoordinator` so the slices it serves never over-request the
infrastructure.

The service is deployment-shaped but dependency-free: it runs
in-process, fed either by the :class:`~repro.serve.loadgen
.LoadGenerator` or by the ``python -m repro serve`` CLI loop.  A
service is built *from a snapshot* (see :mod:`~repro.serve
.policy_store`), never from live training state, and can serve slice
populations larger than it was trained on: target slices map onto
snapshot policies by name, falling back to cycling through the
policies trained for the same application template.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.config import ExperimentConfig, NUM_ACTIONS
from repro.domains.coordinator import ParameterCoordinator
from repro.obs.metrics import Telemetry
from repro.obs.trace import trace
from repro.rl.cost_estimator import CostToGoEstimator
from repro.rl.ppo import GaussianActorCritic
from repro.serve.policy_store import PolicySnapshot
from repro.sim.env import STATE_DIM
from repro.sim.network import CONSTRAINED_RESOURCES

#: Decision-path stages, pipeline order.  Each ``decide()`` call
#: observes one ``stage_<name>_ms`` histogram sample per stage, so
#: per-stage latency survives telemetry merges all the way up to the
#: fleet report.
DECISION_STAGES = ("assemble", "forward", "fallback", "coordinate")


@dataclass(frozen=True)
class DecisionRequest:
    """One slice's state, as the RAN/edge telemetry would report it."""

    slice_name: str
    state: np.ndarray               # STATE_DIM observation vector


@dataclass(frozen=True)
class Decision:
    """One slice's resource allocation for the next slot."""

    slice_name: str
    action: np.ndarray              # NUM_ACTIONS allocation in [0, 1]
    fallback: bool                  # served by pi_b (safe fallback)
    policy: str                     # snapshot policy that served it


class _LearnedPolicy:
    """A snapshot policy entry rebuilt for inference (pi_theta [+ pi_phi
    + pi_b] for OnSlicing; pi_theta alone for OnRL)."""

    def __init__(self, name: str, payload: Dict, cfg: ExperimentConfig,
                 rng: np.random.Generator) -> None:
        self.name = name
        self.app = payload["app"]
        agent_cfg = cfg.agent
        self.model = GaussianActorCritic(
            STATE_DIM, NUM_ACTIONS, policy_cfg=agent_cfg.policy,
            ppo_cfg=agent_cfg.ppo, rng=rng)
        self.model.load_state_dict(payload["model"])
        self.estimator: Optional[CostToGoEstimator] = None
        self.baseline = payload.get("baseline")
        if "estimator" in payload:
            estimator = CostToGoEstimator(
                STATE_DIM, cfg=agent_cfg.estimator, rng=rng)
            estimator.network.load_state_dict(payload["estimator"])
            estimator.target_scale = payload["estimator_scale"]
            self.estimator = estimator

    def act_rows(self, states: np.ndarray) -> np.ndarray:
        """Deterministic pi_theta actions for a batch of states."""
        return self.model.mean_actions(states)

    def cost_to_go(self, states: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched pi_phi posterior ``(mu, sigma)`` per state."""
        mu, sigma = self.estimator.predict_batch(states)
        return np.maximum(mu, 0.0), sigma


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
