"""The online slicing decision service.

The paper's controller decides once per configuration slot for every
slice of a cell -- pi_theta proposes, the pi_phi cost estimator
switches a slice to the rule-based baseline pi_b for the *rest of the
episode* when it predicts an SLA violation (Eq. 8, the one-way door of
Sec. 3), and a cell whose allocations over-request a resource is
projected into capacity (Sec. 4) -- and a fleet is that decision for
many cells at the same slot.  Serving has no action modifier pi_a, so
it does not coordinate (Eq. 13-14): a cell that fits is served as
proposed, one that does not goes through
:func:`~repro.engine.policies.project_actions_batch`, the projection
evaluation executes, so a served cell decides what ``run_episodes``
evaluates.

:class:`DecisionCore` is that decision, row-wise: one call decides
every row of every cell it is asked about.  Its only state across
slots is the Eq. 8 latch, one boolean vector over every cell's
slices; routing is one cached plan per name sequence, pi_b tables
answer with one ``act_rows`` per table, pi_theta and the pi_phi
posterior (in closed form: nothing is drawn) run once per snapshot
and row count for every policy and cell at once (each group a matmul
slab, bit-identical to the group alone), the posterior only on rows
that latch does not hold yet (a switched slice has nothing left for
Eq. 8 to decide until :meth:`SlicingService.begin_episode` re-arms
it), one projection call covers every cell over capacity, and each
cell's telemetry is buffered and folded into its own
:class:`~repro.obs.metrics.Telemetry` in bulk
(:meth:`DecisionCore.flush`).

:class:`SlicingService` is one cell -- a snapshot bound to a target
config, its telemetry and observers -- and
:meth:`SlicingService.decide` is the one-cell edge over the same core
that takes :class:`DecisionRequest` objects and hands back
:class:`Decision` objects, exactly as ``ScenarioSimulator.step`` is
the ``B = 1`` case of ``BatchSimulator.step``.

A service is built *from a snapshot* (see :mod:`~repro.serve
.policy_store`), never from live training state, and can serve slice
populations larger than it was trained on: target slices map onto
snapshot policies by name, falling back to cycling through the
policies trained for the same application template.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.config import ExperimentConfig, NUM_ACTIONS
from repro.core.switching import expected_episode_cost
from repro.engine.policies import project_actions_batch, world_totals
from repro.nn.bayesian import BayesianPosterior
from repro.nn.slabs import (
    mlp_forward,
    posterior_span,
    stack_mlps,
    stack_posteriors,
)
from repro.obs.metrics import Telemetry
from repro.obs.trace import active as active_tracer
from repro.rl.cost_estimator import CostToGoEstimator, destandardise
from repro.rl.ppo import GaussianActorCritic
from repro.serve.policy_store import PolicySnapshot
from repro.sim.env import STATE_DIM

#: Decision-path stages, pipeline order (``coordinate`` is the
#: capacity projection).  Every decision of a cell observes one
#: ``stage_<name>_ms`` histogram sample per stage, so per-stage latency
#: survives telemetry merges all the way up to the fleet report.
DECISION_STAGES = ("assemble", "forward", "fallback", "coordinate")

#: The capacity ``L_k_max`` every constrained resource is normalised
#: to (Eq. 9: a cell's usage of a kind is at most 1).
_CAPACITY = 1.0

#: Decisions a cell may have buffered before its telemetry is folded
#: without being asked (:meth:`DecisionCore.flush`).
PENDING_SLOTS = 128

#: Columns of the per-(slot, cell) telemetry buffer: rows decided,
#: projected (0 / 1), rows served by pi_b, the fresh Eq. 8 triggers
#: among them, then milliseconds -- the whole decision and one per
#: stage of :data:`DECISION_STAGES`.
_ROWS, _PROJECTED, _FALLBACKS, _EQ8, _ELAPSED = range(5)
_STAGES = slice(_ELAPSED + 1, _ELAPSED + 1 + len(DECISION_STAGES))
_FIELDS = _STAGES.stop


@dataclass(frozen=True)
class DecisionRequest:
    """One slice's state, as the RAN/edge telemetry would report it."""

    slice_name: str
    state: np.ndarray               # STATE_DIM observation vector


class Decision(NamedTuple):
    """One slice's resource allocation for the next slot (immutable)."""

    slice_name: str
    action: np.ndarray              # NUM_ACTIONS allocation in [0, 1]
    fallback: bool                  # served by pi_b (safe fallback)
    policy: str                     # snapshot policy that served it


@dataclass
class RowDecisions:
    """One :meth:`DecisionCore.decide_rows` call's outcome.

    Rows are cell-major in the call's cell order, each cell's in its
    name order; the per-cell vectors are in the call's cell order.
    """

    actions: np.ndarray             # (R, NUM_ACTIONS) allocations
    fallback: np.ndarray            # (R,) bool: served by pi_b
    policies: List[str]             # snapshot policy per row
    fallbacks: np.ndarray           # (C,) rows served by pi_b
    projected: np.ndarray           # (C,) bool: capacity projection


class _LearnedPolicy:
    """A snapshot policy entry rebuilt for inference (pi_theta [+ pi_phi
    + pi_b] for OnSlicing; pi_theta alone for OnRL).

    It checks nothing: its builders check the entry first
    (:func:`_check_finite`) -- every :class:`SlicingService` the whole
    snapshot when it is built, the fuzz's ``SnapshotBatchPolicy`` each
    policy it serves.
    """

    def __init__(self, snapshot: PolicySnapshot, name: str) -> None:
        payload = snapshot.policies[name]
        self.name = name
        self.app = payload["app"]
        agent_cfg = snapshot.config.agent
        self.model = GaussianActorCritic(
            STATE_DIM, NUM_ACTIONS, policy_cfg=agent_cfg.policy,
            ppo_cfg=agent_cfg.ppo)
        self.model.load_state_dict(payload["model"])
        self.estimator: Optional[CostToGoEstimator] = None
        self.baseline = payload.get("baseline")
        if "estimator" in payload:
            self.estimator = CostToGoEstimator(STATE_DIM,
                                               cfg=agent_cfg.estimator)
            self.estimator.load(payload["estimator"],
                                payload["estimator_scale"])

    def act_rows(self, states: np.ndarray) -> np.ndarray:
        """Deterministic pi_theta actions for ``(n, STATE_DIM)`` states
        (the fuzz oracle's batch policy; serving reads :class:`_Slabs`)."""
        return self.model.mean_actions(states)


def _check_finite(ref: str, name: str, payload: Dict) -> None:
    """Refuse a snapshot policy entry whose pi_theta / pi_phi tensors,
    pi_phi target scale or pi_b table (``actions``, ``bin_edges``) are
    not finite, or whose scale std is <= 0, with a ``ValueError``
    naming the ref, the policy and the tensor: a NaN posterior compares
    false against any budget, so Eq. 8 would silently never fire, and
    a NaN pi_b action would be served."""
    for part in ("model", "estimator"):
        for tensor, value in payload.get(part, {}).items():
            if not np.isfinite(value).all():
                raise ValueError(
                    f"snapshot {ref}: policy {name!r} {part} tensor "
                    f"{tensor!r} is not finite")
    if "estimator_scale" in payload:
        mean, std = payload["estimator_scale"]
        if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
            raise ValueError(
                f"snapshot {ref}: policy {name!r} estimator_scale "
                f"(mean {mean}, std {std}) must be finite with std > 0")
    table = payload.get("baseline")
    for field in ("actions", "bin_edges"):
        if table is not None and not np.isfinite(
                getattr(table, field)).all():
            raise ValueError(f"snapshot {ref}: policy {name!r} baseline "
                             f"{field} is not finite")


class _Slabs:
    """One snapshot's learned policies, rebuilt for inference
    (:class:`_LearnedPolicy`, kept by name in snapshot order as
    ``policies``) and stacked as tables that serve every cell of the
    snapshot in a core: pi_theta's actor as ``(P, 1, in, out)`` weights and
    ``(P, 1, 1, out)`` biases, pi_phi's frozen posterior and noise
    alike over ``eq8_names``.  The weights are copies, never refreshed
    (a snapshot's do not change); the target scale is read from
    ``eq8``'s estimators on every pass.  A pass reads a ``span`` of
    positions -- for pi_phi one :func:`posterior_span` of views, kept
    per span -- and returns the slabs ``real`` marks, in ``(p, g)``
    order."""

    def __init__(self, snapshot: PolicySnapshot) -> None:
        policies = [_LearnedPolicy(snapshot, name)
                    for name in snapshot.policies]
        self.policies = {p.name: p for p in policies}
        self.actor = stack_mlps([p.model.actor for p in policies])
        self.names = list(self.policies)
        self.eq8 = [p for p in policies
                    if p.estimator is not None and p.baseline is not None]
        self.eq8_names = [p.name for p in self.eq8]
        if self.eq8:
            self.table = stack_posteriors(
                [p.estimator.network.posterior() for p in self.eq8])
        self._spans: Dict[Tuple[int, int], BayesianPosterior] = {}

    def forward(self, states: np.ndarray, real: np.ndarray,
                span: slice) -> np.ndarray:
        """pi_theta's deterministic actions, ``(K, n, NUM_ACTIONS)``."""
        out = mlp_forward(self.actor, states, span)
        return np.clip(out[real], 0.0, 1.0)

    def posterior(self, states: np.ndarray, real: np.ndarray,
                  span: slice) -> Tuple[np.ndarray, np.ndarray]:
        """pi_phi's closed-form ``(mu, sigma)`` in cost units, each
        ``(K, n)``, ``mu`` floored at 0 as Eq. 8 reads it."""
        table = self._spans.get((span.start, span.stop))
        if table is None:
            table = self._spans[span.start, span.stop] = posterior_span(
                self.table, span)
        mean, std = table.predict(states)
        scale = np.array([p.estimator.target_scale
                          for p in self.eq8[span]]).T[:, :, None, None]
        mu, sigma = destandardise(mean[..., 0], std[..., 0], scale)
        return np.maximum(mu[real], 0.0), sigma[real]


def _layout(groups) -> List[tuple]:
    """``(slabs, span, at, real, rows)`` per (snapshot, row count) of
    ``(slabs, position, rows)`` groups: ``span`` the run of slab
    positions, ``at`` their ``(len(span), G, n)`` row index, ``real``
    the slabs holding a group (dummies repeat the first) and ``rows``
    the real slabs' rows, ``at[real]``."""
    stacks: Dict[tuple, Dict[int, list]] = {}
    for slabs, position, rows in groups:
        if len(rows):
            stacks.setdefault((slabs, len(rows)), {}).setdefault(
                position, []).append(rows)
    layout = []
    for (slabs, count), by_slab in stacks.items():
        span = slice(min(by_slab), max(by_slab) + 1)
        at = np.empty((span.stop - span.start,
                       max(map(len, by_slab.values())), count),
                      dtype=np.intp)
        at[...] = next(iter(by_slab.values()))[0]
        real = np.zeros(at.shape[:2], dtype=bool)
        for position, own in by_slab.items():
            at[position - span.start, :len(own)] = own
            real[position - span.start, :len(own)] = True
        layout.append((slabs, span, at, real, at[real]))
    return layout


class SlicingService:
    """One cell of the decision service: a policy snapshot bound to a
    target config, with its telemetry and observers.

    Building a service checks every snapshot policy
    (:func:`_check_finite`) and routes the target slices; it holds no
    network.  The :class:`DecisionCore` that adopts it builds them (a
    standalone service's own one-cell core, the first time
    :attr:`core` is read), never a decide.

    Parameters
    ----------
    snapshot:
        The :class:`PolicySnapshot` to serve.
    cfg:
        The *target* deployment config (slice population, SLAs,
        horizon).  Defaults to the snapshot's training config; the load
        generator passes the scenario config so a 3-slice snapshot can
        serve a ``population(50)`` cell.
    rng_seed:
        Accepted for callers written when the pi_phi posterior was
        sampled; serving draws nothing, so it has no effect on any
        output.
    trace_attrs:
        Attributes stamped onto every trace row this cell's decisions
        leave (the fleet layer passes ``cell``/``scenario`` so traces
        attribute per cell); ignored while tracing is off.
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
                 telemetry: Optional[Telemetry] = None,
                 rng_seed: Optional[int] = None,
                 trace_attrs: Optional[Mapping[str, object]] = None,
                 slo=None,
                 slo_every: int = 64,
                 anomaly=None) -> None:
        self.snapshot = snapshot
        self.cfg = cfg if cfg is not None else snapshot.config
        #: Risk preference of the fallback criterion (Eq. 8).
        self.eta = snapshot.config.agent.switching.eta
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.horizon = self.cfg.traffic.slots_per_episode
        self._trace_attrs = dict(trace_attrs or {})
        if slo_every < 1:
            raise ValueError("slo_every must be >= 1")
        self.slo = slo
        self.anomaly = anomaly
        self._slo_every = int(slo_every)
        for name, payload in snapshot.policies.items():
            _check_finite(snapshot.ref, name, payload)
        #: target slice name -> (policy key, table policy or None for
        #: learned policies); the position of a name is the slice's
        #: index in its cell's segment of the core's latch
        self._routes = self._build_routes()
        self._slice_index = {name: index
                             for index, name in enumerate(self._routes)}
        #: The core holding this cell's latch, and the cell's
        #: index in it: a one-cell core of its own until a driver
        #: stacks the service with others.
        self._core: Optional["DecisionCore"] = None
        self._cell = 0

    @property
    def core(self) -> "DecisionCore":
        """The :class:`DecisionCore` this cell is currently part of."""
        if self._core is None:
            DecisionCore([self])
        return self._core

    def begin_episode(self) -> None:
        """Re-arm the safe fallback at an episode boundary.

        Within an episode the Eq. 8 switch is a one-way door ("let the
        baseline policy take over the rest of the episode"); episode-
        aware drivers (the load generator, an operator's day rollover)
        call this at each reset.
        """
        self.core.begin_episode(self._cell)

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

    # ---- the one-cell edge -------------------------------------------

    def _rows(self, requests: Sequence[DecisionRequest]):
        """The routing plan and stacked ``(n, STATE_DIM)`` states of
        one request batch; a malformed request raises naming its slice
        (unknown names and duplicates first, then shapes).

        The states stack in one ``np.array`` call; a batch that does
        not stack to ``(n, STATE_DIM)`` (ragged, or not numbers) is
        walked request by request, so the error names the first
        offender."""
        names = [request.slice_name for request in requests]
        plan = self.core._route([self._cell], [names])
        try:
            states = np.array([request.state for request in requests],
                              dtype=np.float64)
        except (TypeError, ValueError):
            states = None
        if states is None or states.shape != (len(names), STATE_DIM):
            states = [np.asarray(request.state, dtype=np.float64)
                      for request in requests]
            for name, state in zip(names, states):
                if state.shape != (STATE_DIM,):
                    raise ValueError(
                        f"state for {name!r} must have shape "
                        f"({STATE_DIM},), got {state.shape}")
            states = np.stack(states)
        return plan, states

    def decide(self, requests: Sequence[DecisionRequest]
               ) -> Dict[str, Decision]:
        """Serve one batch of per-slice requests.

        Returns a decision per request.  The whole batch is treated as
        one slot of one cell: allocations are fit into capacity jointly, so
        callers should batch the slices that share infrastructure.
        A batch with an unknown or repeated slice, a state of the
        wrong shape or a non-finite state is rejected whole, before it
        changed anything.  Telemetry is current when this returns.
        """
        if not requests:
            return {}
        core = self.core
        start = time.perf_counter()
        plan, states = self._rows(requests)
        out = core._decide(plan, states, start)
        core.flush(plan.cells)
        names = plan.names[0]
        return dict(zip(names, map(Decision, names, out.actions,
                                   out.fallback.tolist(), out.policies)))

    def decide_one(self, request: DecisionRequest) -> Decision:
        return self.decide([request])[request.slice_name]


class _Plan:
    """Everything :meth:`DecisionCore.decide_rows` needs that depends
    only on *which* cells are asked about and under which slice names,
    validated once: a plan that was built is a batch with no unknown
    and no repeated slice."""

    def __init__(self, core: "DecisionCore", cells: List[int],
                 names: List[List[str]]) -> None:
        if len(cells) != len(names) or not cells:
            raise ValueError(
                f"need one name list per cell, got {len(names)} for "
                f"{len(cells)} cell(s)")
        self.cells = list(cells)
        self.names = [list(cell_names) for cell_names in names]
        self.index = np.asarray(self.cells, dtype=np.intp)
        self.counts = np.asarray([len(n) for n in self.names])
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        self.starts = self.offsets[:-1]
        self.rows = int(self.offsets[-1])
        self.cell_of_row = np.repeat(np.arange(len(self.cells)),
                                     self.counts)
        self.policies: List[str] = []
        slice_ids: List[int] = []
        tables: Dict[int, tuple] = {}
        baselines: Dict[int, tuple] = {}
        forwards: List[tuple] = []
        #: ``(slabs, position, span)`` per learned (cell, snapshot
        #: policy) group with pi_phi rows: its slab position in the
        #: snapshot's pi_phi stack and its rows ``eq8_rows[span]``
        self.posteriors: List[tuple] = []
        eq8_rows: List[int] = []
        self.groups = np.zeros(len(self.cells), dtype=np.intp)
        row = 0
        for position, (cell, cell_names) in enumerate(
                zip(self.cells, self.names)):
            service = core.services[cell]
            where = core._where(cell)
            if not cell_names:
                raise ValueError(f"{where}no slice to decide for")
            first = int(core._slice_starts[cell])
            groups: Dict[str, List[int]] = {}
            seen = set()
            for name in cell_names:
                route = service._routes.get(name)
                if route is None:
                    raise KeyError(
                        f"{where}unknown slice {name!r}; service "
                        f"slices: {service.slice_names}")
                if name in seen:
                    raise ValueError(
                        f"{where}slice {name!r} is named twice in one "
                        "batch")
                seen.add(name)
                key, table = route
                self.policies.append(key)
                slice_ids.append(first + service._slice_index[name])
                if table is not None:
                    tables.setdefault(id(table), (table, []))[1].append(
                        row)
                else:
                    groups.setdefault(key, []).append(row)
                row += 1
            self.groups[position] = len(groups)
            for key, rows in groups.items():
                slabs = core._slabs[id(service.snapshot)]
                policy = slabs.policies[key]
                forwards.append((slabs, slabs.names.index(key), rows))
                if policy.estimator is None or policy.baseline is None:
                    continue
                self.posteriors.append((slabs, slabs.eq8_names.index(key),
                                        slice(len(eq8_rows),
                                              len(eq8_rows) + len(rows))))
                eq8_rows.extend(rows)
                baselines.setdefault(
                    id(policy.baseline),
                    (policy.baseline, []))[1].extend(rows)
        self.slice_ids = np.asarray(slice_ids, dtype=np.intp)
        #: ``(table, rows)`` per pi_b table / analytic program serving
        #: rows directly, and per pi_b table standing behind learned
        #: rows (Eq. 8 substitution)
        self.tables = [(table, np.asarray(rows, dtype=np.intp))
                       for table, rows in tables.values()]
        self.baselines = [(table, np.asarray(rows, dtype=np.intp))
                          for table, rows in baselines.values()]
        #: ``(slabs, span, at, real, rows)`` per pi_theta forward: the
        #: learned (cell, policy) groups of one snapshot and row count
        self.forwards = _layout(forwards)
        self.eq8_rows = np.asarray(eq8_rows, dtype=np.intp)
        #: the pi_phi pass layout last built, and the open-row mask
        #: (``bytes``) it was built for: rebuilt only when a row
        #: latches or a cell re-arms
        self.open_key: Optional[bytes] = None
        self.passes: List[tuple] = []
        owner = self.cell_of_row[self.eq8_rows]
        self.eq8_horizon = core._horizon[self.index][owner]
        self.eq8_eta = core._eta[self.index][owner]
        # what every slot's telemetry block starts from, and the
        # answers of a plan no learned policy serves
        self.share = self.counts / self.rows
        self.block = np.zeros((len(self.cells), _FIELDS))
        self.block[:, _ROWS] = self.counts
        self.no_fallback = np.zeros(self.rows, dtype=bool)
        self.no_fallbacks = np.zeros(len(self.cells), dtype=np.intp)
        self.observed = [cell for cell in self.cells
                         if cell in core._observed]


class DecisionCore:
    """The row-wise decision core over ``C`` cells.

    Built over the :class:`SlicingService` cells it decides for, which
    it *adopts*: their latch moves into this core's array
    (whatever core held it before is flushed first) and
    ``service.core`` is this core from then on, so
    :meth:`SlicingService.decide` and :meth:`decide_rows` read and
    write one state.

    It owns the inference networks: one :class:`_Slabs` per distinct
    learned snapshot of its cells, built here -- or taken over from
    the core a cell is adopted from, as its latch is -- so no decide
    builds a network, and a core builds each (snapshot, policy) once.

    What is per-cell state, and where: ``_latched[_slice_starts[c]:
    _slice_starts[c + 1]]`` -- the Eq. 8 one-way door per slice of the
    cell's config, cleared by :meth:`begin_episode` (nothing else is
    carried from one slot to the next).  What is cached: one
    :class:`_Plan` for the last (cells, names) asked about; in it, the
    pi_phi pass layout for the last latch state (open-row mask) seen;
    and in each :class:`_Slabs`, its pi_phi span views.  What is
    deferred: every decision's telemetry sits in a per-(slot, cell)
    buffer until :meth:`flush` folds it into the cell's registry, so
    anything that reads a registry flushes first
    (:meth:`SlicingService.decide` does before it returns; services
    with an ``slo`` / ``anomaly`` observer are flushed on every
    decision).
    """

    def __init__(self, services: Sequence[SlicingService]) -> None:
        if not services:
            raise ValueError("need at least one service")
        self.services: List[SlicingService] = list(services)
        count = len(self.services)
        self._slice_starts = np.concatenate(
            ([0], np.cumsum([len(s._routes) for s in self.services])))
        self._latched = np.zeros(int(self._slice_starts[-1]), dtype=bool)
        self._horizon = np.asarray([s.horizon for s in self.services],
                                   dtype=float)
        self._eta = np.asarray([s.eta for s in self.services],
                               dtype=float)
        self._observed = {cell for cell, s in enumerate(self.services)
                          if s.slo is not None or s.anomaly is not None}
        self._everyone = list(range(count))
        self._plan: Optional[_Plan] = None
        #: :class:`_Slabs` per learned snapshot (by ``id``)
        self._slabs: Dict[int, _Slabs] = {}
        self._counters = dict.fromkeys(
            ("decide_calls", "rows_decided", "plan_builds",
             "projections", "telemetry_folds",
             "forward_calls", "posterior_calls", "posterior_rows",
             "pass_layouts"), 0)
        self._pending = np.zeros(count, dtype=np.intp)
        self._buffer = np.empty((PENDING_SLOTS, count, _FIELDS))
        self._instruments: List[Optional[_CellInstruments]] = \
            [None] * count
        for cell, service in enumerate(self.services):
            old = service._core
            if old is not None:
                old.flush((service._cell,))
                self._segment(cell)[:] = old._segment(service._cell)
                key = id(service.snapshot)
                if key in old._slabs:
                    self._slabs[key] = old._slabs[key]
            service._core, service._cell = self, cell
        for service in self.services:
            key = id(service.snapshot)
            if key not in self._slabs and \
                    service.snapshot.method in ("onslicing", "onrl"):
                self._slabs[key] = _Slabs(service.snapshot)

    @property
    def counters(self) -> Mapping[str, int]:
        """What this core did so far (a read-only snapshot):
        :meth:`decide_rows` calls and the rows they decided, routing
        plans built, cell-decisions that needed the capacity projection,
        per-cell telemetry folds, the pi_theta forwards run, the pi_phi
        passes run and the (unlatched) rows they evaluated -- a
        forward or a pass serves the groups of every policy and cell
        of one snapshot and (open-)row count at once -- and the pi_phi
        pass layouts built (one per change of the open rows)."""
        return MappingProxyType(dict(self._counters))

    def _segment(self, cell: int) -> np.ndarray:
        """One cell's slices of the Eq. 8 latch (a view)."""
        return self._latched[self._slice_starts[cell]:
                             self._slice_starts[cell + 1]]

    def _where(self, cell: int) -> str:
        """Error-message prefix naming ``cell`` when there is more
        than one to confuse it with (the fleet's cell id if the
        service carries one)."""
        if len(self.services) == 1:
            return ""
        attrs = self.services[cell]._trace_attrs
        return f"cell {attrs.get('cell', cell)}: "

    def begin_episode(self, cell: int) -> None:
        """Re-arm one cell's Eq. 8 latch."""
        self._segment(cell)[:] = False

    # ---- deciding ----------------------------------------------------

    def _route(self, cells: List[int],
               names: List[List[str]]) -> _Plan:
        """The plan for ``names`` of ``cells``: the cached one while
        both repeat, else built (and the batch's names validated)."""
        plan = self._plan
        if plan is None or cells != plan.cells or names != plan.names:
            plan = self._plan = _Plan(self, cells, names)
            self._counters["plan_builds"] += 1
        return plan

    def _check(self, plan: _Plan, states: np.ndarray) -> None:
        """Reject states of the wrong shape or not finite, naming the
        first offending slice."""
        if states.shape != (plan.rows, STATE_DIM):
            raise ValueError(
                f"states must have shape ({plan.rows}, {STATE_DIM}) "
                f"for these names, got {states.shape}")
        finite = np.isfinite(states)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            position = int(plan.cell_of_row[row])
            name = plan.names[position][row - plan.offsets[position]]
            raise ValueError(
                f"{self._where(plan.cells[position])}non-finite state "
                f"for slice {name!r}: {states[row]}")

    def decide_rows(self, states: np.ndarray,
                    names: List[List[str]],
                    cells: Optional[List[int]] = None) -> RowDecisions:
        """Decide one slot for every row of ``cells`` (default: all).

        ``states`` is ``(R, STATE_DIM)``, cell-major in ``cells``
        order, each cell's rows in the order of its entry of
        ``names``.  The batch is validated -- shape, finite, every
        name a slice of its cell and named once -- before anything
        changes, so a rejected call can simply be retried.
        """
        start = time.perf_counter()
        plan = self._route(self._everyone if cells is None else cells,
                           names)
        return self._decide(plan, np.asarray(states, dtype=np.float64),
                            start)

    def _decide(self, plan: _Plan, states: np.ndarray,
                start: float) -> RowDecisions:
        """:meth:`decide_rows` once the plan is known (``start`` is
        when the caller began working on the batch)."""
        self._check(plan, states)
        actions, fallback, held, seconds = self._propose(plan, states,
                                                         start)
        proposed = time.perf_counter()
        actions, projected = self._project(plan, actions)
        done = time.perf_counter()
        seconds.append(done - proposed)

        counters = self._counters
        counters["decide_calls"] += 1
        counters["rows_decided"] += plan.rows
        counters["forward_calls"] += len(plan.forwards)
        block = plan.block
        block[:, _PROJECTED] = projected
        if fallback is plan.no_fallback:
            fallbacks = plan.no_fallbacks
        else:
            fallbacks = np.add.reduceat(fallback.astype(np.intp),
                                        plan.starts)
            block[:, _FALLBACKS] = fallbacks
            block[:, _EQ8] = fallbacks - np.add.reduceat(
                held.astype(np.intp), plan.starts)
        block[:, _ELAPSED:] = plan.share[:, None] * (
            1e3 * np.asarray([done - start] + seconds))
        slots = self._pending[plan.index]
        if slots.max() == PENDING_SLOTS:
            self.flush()
            slots = self._pending[plan.index]
        self._buffer[slots, plan.index] = block
        self._pending[plan.index] = slots + 1

        tracer = active_tracer()
        if tracer is not None:
            self._trace(tracer, plan, block)
        for cell in plan.observed:
            self._run_observers(cell)
        return RowDecisions(
            actions=actions, fallback=fallback, policies=plan.policies,
            fallbacks=fallbacks, projected=projected)

    def _propose(self, plan: _Plan, states: np.ndarray, start: float):
        """Pre-projection actions of validated rows: tables, the
        pi_theta forwards, then Eq. 8 on the rows the latch does not
        already hold.

        Returns ``(actions, fallback, held, seconds)``: ``fallback``
        the rows pi_b serves, ``held`` those the latch was already
        holding, ``seconds`` spent in the assemble (routing,
        validation and table reads, since ``start``), forward and
        fallback stages.

        Each learned (cell, snapshot policy) group is a slab: the
        groups of one snapshot and row count -- of every policy, in
        every cell -- share one pi_theta forward over a ``(P, G, n,
        STATE_DIM)`` stack (:class:`_Slabs`, :func:`_layout`) whose slab
        ``[p, g]`` numpy multiplies with the very BLAS call the group
        alone makes against policy ``p``'s weights.  Ragged groups are
        padded with whole dummy slabs, never rows, and their outputs
        dropped; rows of different groups are never merged into one
        matrix, since a product's rows are not bit-stable across row
        counts (gemv against gemm kernels), its slabs are.

        The switch is a one-way door, so a latched row has nothing
        left to ask pi_phi: a group's posterior covers its *open* rows
        only, and a group the latch holds whole drops out.  The groups
        left share one closed-form pass per snapshot and open-row
        count, stacked alike, so each group's ``(mu, sigma)`` is the
        float its own call gives.
        """
        actions = np.empty((plan.rows, NUM_ACTIONS))
        for table, rows in plan.tables:
            actions[rows] = table.act_rows(states[rows])
        assembled = time.perf_counter()
        for slabs, span, at, real, rows in plan.forwards:
            actions[rows] = slabs.forward(states[at], real, span)
        forwarded = time.perf_counter()
        fallback = held = plan.no_fallback
        if plan.posteriors:
            # only pi_phi rows ever latch: without them there is no
            # latch to read
            held = self._latched[plan.slice_ids]
            open_ = ~held[plan.eq8_rows]
            watched = states[plan.eq8_rows]
            mu = np.zeros(len(open_))
            sigma = np.zeros(len(open_))
            counters = self._counters
            key = open_.tobytes()
            if key != plan.open_key:
                plan.open_key, plan.passes = key, _layout(
                    (slabs, position,
                     np.flatnonzero(open_[span]) + span.start)
                    for slabs, position, span in plan.posteriors)
                counters["pass_layouts"] += 1
            for slabs, span, at, real, rows in plan.passes:
                mu[rows], sigma[rows] = slabs.posterior(watched[at],
                                                        real, span)
            counters["posterior_calls"] += len(plan.passes)
            counters["posterior_rows"] += int(open_.sum())
            # Eq. 8: cumulative cost + the pi_phi posterior beyond the
            # episode budget means pi_b takes over; a latched row's
            # (zero) posterior is ORed into the latch it already holds
            thresholds = watched[:, 7] * plan.eq8_horizon  # T * C_max
            cumulative = watched[:, 8] * thresholds
            expected = expected_episode_cost(cumulative, mu, sigma,
                                             plan.eq8_eta)
            fallback = held.copy()
            fallback[plan.eq8_rows] |= expected >= thresholds
            if fallback.any():
                for table, rows in plan.baselines:
                    hit = rows[fallback[rows]]
                    if len(hit):
                        actions[hit] = table.act_rows(states[hit])
                self._latched[plan.slice_ids] = fallback
        return actions, fallback, held, [
            assembled - start, forwarded - assembled,
            time.perf_counter() - forwarded]

    def _project(self, plan: _Plan, actions: np.ndarray):
        """Fit every cell's allocations into capacity; returns the
        actions served and the per-cell ``projected`` flags.

        A cell whose per-kind totals fit is served as proposed; the
        others go through :func:`~repro.engine.policies
        .project_actions_batch` (paper Sec. 4), which scales every kind
        over capacity by ``capacity / total`` -- the projection
        ``run_episodes`` executes -- and the flags are read off the
        very totals it scales by.  Infrastructure capacity is
        physical: no served cell exceeds it.
        """
        totals = world_totals(actions, plan.offsets)
        projected = (totals > _CAPACITY).any(axis=1)
        if projected.any():
            actions = project_actions_batch(actions, plan.offsets,
                                            _CAPACITY, totals)
            self._counters["projections"] += int(projected.sum())
        return actions, projected

    # ---- deferred telemetry ------------------------------------------

    def flush(self, cells: Optional[Sequence[int]] = None) -> None:
        """Fold the buffered decisions of ``cells`` (default: every
        cell) into their services' telemetry, in slot order."""
        for cell in (self._everyone if cells is None else cells):
            pending = self._pending[cell]
            if pending:
                self._fold(cell, self._buffer[:pending, cell])
                self._pending[cell] = 0

    def _fold(self, cell: int, block: np.ndarray) -> None:
        """One cell's ``(slots, fields)`` of buffered decisions into
        its registry: what one ``inc`` / ``observe`` per decision and
        instrument leaves, as one bulk update per instrument."""
        self._counters["telemetry_folds"] += 1
        found = self._instruments[cell]
        if found is None:
            found = self._instruments[cell] = _CellInstruments(
                self.services[cell].telemetry)
        # every counted column holds whole numbers, so its sum is exact
        # in any order
        sums = block.sum(axis=0).tolist()
        decisions, fallbacks = sums[_ROWS], sums[_FALLBACKS]
        found.decisions.inc(decisions)
        found.batches.inc(len(block))
        found.fallbacks.inc(fallbacks)
        if fallbacks:
            # a fresh Eq. 8 trigger, or the one-way door holding a
            # previously switched slice on pi_b
            for cause, count in (("eq8", sums[_EQ8]),
                                 ("latched", fallbacks - sums[_EQ8])):
                if count:
                    found.lazy("fallbacks", "cause", cause).inc(count)
        # Admission taxonomy: every row of a decision was admitted,
        # either as proposed (the cell fit its capacity) or only after
        # the capacity projection clipped the cell.
        rows = block[:, _ROWS]
        clipped = 0.0
        if sums[_PROJECTED]:
            clipped = float(rows @ block[:, _PROJECTED])
            found.lazy("projections").inc(sums[_PROJECTED])
            found.lazy("admissions", "outcome", "projected").inc(clipped)
        if decisions > clipped:
            found.lazy("admissions", "outcome", "feasible").inc(
                decisions - clipped)
        found.batch_size.observe_many(rows)
        found.batch_latency.observe_many(block[:, _ELAPSED])
        found.decision_latency.observe_many(block[:, _ELAPSED] / rows)
        for histogram, column in zip(found.stages,
                                     block[:, _STAGES].T):
            histogram.observe_many(column)

    def _run_observers(self, cell: int) -> None:
        """Step a cell's ``slo`` / ``anomaly`` observers if its batch
        counter reached their cadence (flushing first: they read the
        registry)."""
        self.flush((cell,))
        service = self.services[cell]
        telemetry = service.telemetry
        batches = telemetry.counter("batches").value
        if batches % service._slo_every == 0:
            if service.slo is not None:
                service.slo.observe(telemetry, at=float(batches))
            if service.anomaly is not None:
                service.anomaly.observe(telemetry, at=float(batches))

    def _trace(self, tracer, plan: _Plan, block: np.ndarray) -> None:
        """Per-cell attributed trace rows of one call: the counts one
        ``serve.decide`` span per cell (with a stage child per stage
        run) would leave, each carrying the cell's share of the time."""
        seconds = block[:, _ELAPSED:] / 1e3
        for position, cell in enumerate(plan.cells):
            attrs = self.services[cell]._trace_attrs
            total, assemble, forward, fallback, coordinate = \
                seconds[position].tolist()
            tracer.add("serve.decide", attrs, 1, total,
                       assemble + forward + fallback + coordinate)
            tracer.add("serve.decide/serve.assemble", attrs, 1,
                       assemble)
            groups = int(plan.groups[position])
            if groups:
                tracer.add("serve.decide/serve.forward", attrs, groups,
                           forward)
                tracer.add("serve.decide/serve.fallback", attrs,
                           groups, fallback)
            tracer.add("serve.decide/serve.coordinate", attrs, 1,
                       coordinate)


class _CellInstruments:
    """One cell's instrument handles, looked up once: the ones every
    decision touches, and the taxonomy counters created only when a
    cause / outcome is first seen (so snapshots of healthy services
    carry no zero-valued taxonomy instruments)."""

    def __init__(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry
        self._lazy: Dict[tuple, object] = {}
        self.decisions = telemetry.counter("decisions")
        self.batches = telemetry.counter("batches")
        self.fallbacks = telemetry.counter("fallbacks")
        self.batch_size = telemetry.histogram("batch_size")
        self.batch_latency = telemetry.histogram("batch_latency_ms")
        self.decision_latency = telemetry.histogram(
            "decision_latency_ms")
        self.stages = [telemetry.histogram(f"stage_{stage}_ms")
                       for stage in DECISION_STAGES]

    def lazy(self, name: str, label: Optional[str] = None,
             value: Optional[str] = None):
        counter = self._lazy.get((name, value))
        if counter is None:
            counter = self._lazy[name, value] = self._telemetry.counter(
                name, {label: value} if label else None)
        return counter
