"""The online slicing decision service.

The paper's controller decides once per configuration slot for every
slice of a cell -- pi_theta proposes, the pi_phi cost estimator
switches a slice to the rule-based baseline pi_b for the *rest of the
episode* when it predicts an SLA violation (Eq. 8, the one-way door of
Sec. 3), and the allocations are priced into capacity against the
coordinating parameters (Eq. 13-14), with projection as the hard
guarantee -- and a fleet is that decision for many cells at the same
slot.

:class:`DecisionCore` is that decision, row-wise: one call decides
every row of every cell it is asked about.  State is arrays (the
warm-started ``beta`` of Eq. 14 as ``(C, 3)``, the Eq. 8 latch as one
boolean vector over every cell's slices), routing is one cached plan
per name sequence, pi_b tables answer with one ``act_rows`` per table,
Eq. 14 is segmented per cell (only the cells still over capacity take
another sub-gradient round), and each cell's telemetry is buffered and
folded into its own :class:`~repro.obs.metrics.Telemetry` in bulk
(:meth:`DecisionCore.flush`).

:class:`SlicingService` is one cell -- a snapshot bound to a target
config, its generator, its telemetry -- and
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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.config import ExperimentConfig, NUM_ACTIONS
from repro.obs.metrics import Telemetry
from repro.obs.trace import active as active_tracer
from repro.rl.cost_estimator import CostToGoEstimator
from repro.rl.ppo import GaussianActorCritic
from repro.serve.policy_store import PolicySnapshot
from repro.sim.env import STATE_DIM
from repro.sim.network import CONSTRAINED_RESOURCES

#: Decision-path stages, pipeline order.  Every decision of a cell
#: observes one ``stage_<name>_ms`` histogram sample per stage, so
#: per-stage latency survives telemetry merges all the way up to the
#: fleet report.
DECISION_STAGES = ("assemble", "forward", "fallback", "coordinate")

#: Constrained action columns, in CONSTRAINED_RESOURCES order, and the
#: capacity ``L_k_max`` every one of them is normalised to.
_KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(), dtype=np.intp)
_CAPACITY = 1.0

#: Decisions a cell may have buffered before its telemetry is folded
#: without being asked (:meth:`DecisionCore.flush`).
PENDING_SLOTS = 128

#: Columns of the per-(slot, cell) telemetry buffer: rows decided,
#: Eq. 14 rounds, projected (0 / 1), rows served by pi_b, the fresh
#: Eq. 8 triggers among them, then milliseconds -- the whole decision
#: and one per stage of :data:`DECISION_STAGES`.
_ROWS, _ROUNDS, _PROJECTED, _FALLBACKS, _EQ8, _ELAPSED = range(6)
_STAGES = slice(_ELAPSED + 1, _ELAPSED + 1 + len(DECISION_STAGES))
_FIELDS = _STAGES.stop


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
    rounds: np.ndarray              # (C,) Eq. 14 rounds
    projected: np.ndarray           # (C,) bool: capacity projection


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
    """One cell of the decision service: a policy snapshot bound to a
    target config, with its generator, telemetry and observers.

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
        self._step_size = self.cfg.agent.modifier.coordinator_step_size
        if self._step_size <= 0:
            raise ValueError("step_size must be positive")
        self._max_rounds = max_coordination_rounds
        self._tolerance = tolerance
        self._trace_attrs = dict(trace_attrs or {})
        if slo_every < 1:
            raise ValueError("slo_every must be >= 1")
        self.slo = slo
        self.anomaly = anomaly
        self._slo_every = int(slo_every)
        self._policies: Dict[str, _LearnedPolicy] = {}
        if snapshot.method in ("onslicing", "onrl"):
            for name, payload in snapshot.policies.items():
                self._policies[name] = _LearnedPolicy(
                    name, payload, snapshot.config, self._rng)
        #: target slice name -> (policy key, table policy or None for
        #: learned policies); the position of a name is the slice's
        #: index in its cell's segment of the core's latch
        self._routes = self._build_routes()
        self._slice_index = {name: index
                             for index, name in enumerate(self._routes)}
        #: The core holding this cell's betas and latch, and the cell's
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
        (unknown names and duplicates first, then shapes)."""
        names = [request.slice_name for request in requests]
        plan = self.core._route([self._cell], [names])
        states = [np.asarray(request.state, dtype=np.float64)
                  for request in requests]
        for name, state in zip(names, states):
            if state.shape != (STATE_DIM,):
                raise ValueError(
                    f"state for {name!r} must have shape "
                    f"({STATE_DIM},), got {state.shape}")
        return plan, np.stack(states)

    def decide(self, requests: Sequence[DecisionRequest]
               ) -> Dict[str, Decision]:
        """Serve one batch of per-slice requests.

        Returns a decision per request.  The whole batch is treated as
        one slot of one cell: allocations are coordinated jointly, so
        callers should batch the slices that share infrastructure.
        A batch with an unknown or repeated slice, a state of the
        wrong shape or a non-finite state is rejected whole, before it
        changed anything.  Telemetry is current when this returns.
        """
        if not requests:
            return {}
        start = time.perf_counter()
        plan, states = self._rows(requests)
        core = self._core
        out = core._decide(plan, states, start)
        core.flush(plan.cells)
        return {
            name: Decision(slice_name=name, action=action,
                           fallback=fallback, policy=policy)
            for name, action, fallback, policy in zip(
                plan.names[0], out.actions, out.fallback.tolist(),
                out.policies)}

    def decide_one(self, request: DecisionRequest) -> Decision:
        return self.decide([request])[request.slice_name]

    def _propose(self, requests: Sequence[DecisionRequest],
                 stages: Dict[str, float]
                 ) -> Dict[str, Tuple[np.ndarray, bool, str]]:
        """Pre-coordination ``(action, fallback, policy key)`` per
        slice -- :meth:`decide` up to Eq. 14, latching included --
        adding the stage seconds spent to ``stages``."""
        plan, states = self._rows(requests)
        core = self._core
        core._check(plan, states)
        actions, fallback, _, seconds = core._propose(
            plan, states, time.perf_counter())
        for stage, spent in zip(DECISION_STAGES, seconds):
            stages[stage] += spent
        return {name: (action, served_by_baseline, policy)
                for name, action, served_by_baseline, policy in zip(
                    plan.names[0], actions, fallback.tolist(),
                    plan.policies)}


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
        #: ``(policy, rows)`` per learned (cell, snapshot policy)
        #: group, cell-major and in order of first appearance -- the
        #: order each cell's generator is drawn from
        self.learned: List[tuple] = []
        #: learned groups that carry pi_phi and pi_b, with their span
        #: of :attr:`eq8_rows`
        self.posteriors: List[tuple] = []
        eq8_rows: List[int] = []
        self.groups = np.zeros(len(self.cells), dtype=np.intp)
        #: every cell's rows in the order Eq. 14 adds them up
        #: (:meth:`allocate`): table rows, then group by group
        summed: List[int] = []
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
                    summed.append(row)
                else:
                    groups.setdefault(key, []).append(row)
                row += 1
            self.groups[position] = len(groups)
            for key, rows in groups.items():
                policy = service._policies[key]
                summed.extend(rows)
                rows = np.asarray(rows, dtype=np.intp)
                self.learned.append((policy, rows))
                if policy.estimator is None or policy.baseline is None:
                    continue
                span = slice(len(eq8_rows), len(eq8_rows) + len(rows))
                self.posteriors.append((policy, rows, span))
                eq8_rows.extend(rows.tolist())
                baselines.setdefault(
                    id(policy.baseline),
                    (policy.baseline, []))[1].extend(rows.tolist())
        self.slice_ids = np.asarray(slice_ids, dtype=np.intp)
        #: ``(table, rows)`` per pi_b table / analytic program serving
        #: rows directly, and per pi_b table standing behind learned
        #: rows (Eq. 8 substitution)
        self.tables = [(table, np.asarray(rows, dtype=np.intp))
                       for table, rows in tables.values()]
        self.baselines = [(table, np.asarray(rows, dtype=np.intp))
                          for table, rows in baselines.values()]
        self.eq8_rows = np.asarray(eq8_rows, dtype=np.intp)
        owner = self.cell_of_row[self.eq8_rows]
        self.eq8_horizon = core._horizon[self.index][owner]
        self.eq8_eta = core._eta[self.index][owner]
        # Eq. 14 work space, kind-major so a cell's rows are one
        # contiguous run per resource kind: the allocations, and per
        # distinct slice count the cells that have it, their rows (in
        # summation order) as a (cells, count) grid and a buffer
        self.allocated = np.empty((len(_KIND_COLUMNS), self.rows))
        self.sums = np.empty((len(self.cells), len(_KIND_COLUMNS)))
        self.by_count = []
        summed = np.asarray(summed, dtype=np.intp)
        for count in np.unique(self.counts):
            positions = np.flatnonzero(self.counts == count)
            self.by_count.append((
                positions,
                summed[self.starts[positions][:, None]
                       + np.arange(count)],
                np.empty((len(_KIND_COLUMNS), len(positions), count))))
        # Eq. 14 constants of the asked cells
        self.step = core._step[self.index][:, None]
        self.limit = core._limit[self.index][:, None]
        self.max_rounds = core._max_rounds[self.index]
        # what every slot's telemetry block starts from, and the
        # answers of a plan no learned policy serves
        self.share = self.counts / self.rows
        self.block = np.zeros((len(self.cells), _FIELDS))
        self.block[:, _ROWS] = self.counts
        self.no_fallback = np.zeros(self.rows, dtype=bool)
        self.no_fallbacks = np.zeros(len(self.cells), dtype=np.intp)
        self.observed = [cell for cell in self.cells
                         if cell in core._observed]

    def allocate(self, requested: np.ndarray,
                 prices: np.ndarray) -> np.ndarray:
        """Price-taker allocations ``requested / (1 + beta)`` of
        ``(kinds, R)`` requests under per-cell ``(C, kinds)`` prices,
        into :attr:`allocated`; returns the per-cell ``(C, kinds)``
        totals.

        A total is the float the per-cell loop's ``allocated.sum(
        axis=0)`` gave: there the allocations of one cell were a
        column-major ``(S, kinds)`` array -- table rows in request
        order, then the learned rows policy group by policy group --
        so each kind's column was contiguous and numpy summed it
        pairwise, a different float from the row-order sum once
        ``S >= 8``.  Summing the last axis of a contiguous ``(kinds,
        cells, S)`` block is that same pairwise sum over exactly ``S``
        elements, so cells are grouped by slice count and their rows
        gathered in that order.
        """
        np.divide(requested, (1.0 + prices).T[:, self.cell_of_row],
                  out=self.allocated)
        for positions, rows, block in self.by_count:
            np.take(self.allocated, rows, axis=1, out=block)
            self.sums[positions] = block.sum(axis=2).T
        return self.sums


class DecisionCore:
    """The row-wise decision core over ``C`` cells.

    Built over the :class:`SlicingService` cells it decides for, which
    it *adopts*: their betas and latch move into this core's arrays
    (whatever core held them before is flushed first) and
    ``service.core`` is this core from then on, so
    :meth:`SlicingService.decide` and :meth:`decide_rows` read and
    write one state.

    What is per-cell state, and where: ``_betas[c]`` -- the Eq. 14
    coordinating parameters, warm-started across slots (they move only
    when a sub-gradient round is taken); ``_latched[_slice_starts[c]:
    _slice_starts[c + 1]]`` -- the Eq. 8 one-way door per slice of the
    cell's config, cleared by :meth:`begin_episode`; the generator the
    pi_phi posterior draws from is the service's own.  What is cached:
    one :class:`_Plan` for the last (cells, names) asked about.  What
    is deferred: every decision's telemetry sits in a per-(slot, cell)
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
        self._betas = np.zeros((count, len(_KIND_COLUMNS)))
        self._latched = np.zeros(int(self._slice_starts[-1]), dtype=bool)
        self._step = np.asarray([s._step_size for s in self.services])
        self._limit = np.asarray([_CAPACITY + s._tolerance
                                  for s in self.services])
        self._max_rounds = np.asarray([s._max_rounds
                                       for s in self.services])
        self._horizon = np.asarray([s.horizon for s in self.services],
                                   dtype=float)
        self._eta = np.asarray([s.eta for s in self.services],
                               dtype=float)
        self._observed = {cell for cell, s in enumerate(self.services)
                          if s.slo is not None or s.anomaly is not None}
        self._everyone = list(range(count))
        self._plan: Optional[_Plan] = None
        self._counters = dict.fromkeys(
            ("decide_calls", "rows_decided", "plan_builds",
             "extra_rounds", "projections", "telemetry_folds"), 0)
        self._pending = np.zeros(count, dtype=np.intp)
        self._buffer = np.empty((PENDING_SLOTS, count, _FIELDS))
        self._instruments: List[Optional[_CellInstruments]] = \
            [None] * count
        for cell, service in enumerate(self.services):
            old = service._core
            if old is not None:
                old.flush((service._cell,))
                self._betas[cell] = old._betas[service._cell]
                self._segment(cell)[:] = old._segment(service._cell)
            service._core, service._cell = self, cell

    @property
    def counters(self) -> Mapping[str, int]:
        """What this core did so far (a read-only snapshot):
        :meth:`decide_rows` calls and the rows they decided, routing
        plans built, Eq. 14 cell-rounds beyond each decision's first,
        cell-decisions that needed the capacity projection, and
        per-cell telemetry folds."""
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
        priced = time.perf_counter()
        rounds, projected = self._price(plan, actions)
        done = time.perf_counter()
        seconds.append(done - priced)

        counters = self._counters
        counters["decide_calls"] += 1
        counters["rows_decided"] += plan.rows
        block = plan.block
        block[:, _ROUNDS] = rounds
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
            fallbacks=fallbacks, rounds=rounds, projected=projected)

    def _propose(self, plan: _Plan, states: np.ndarray, start: float):
        """Pre-coordination actions of validated rows: tables, the
        pi_theta forwards, then Eq. 8 with the latch as a mask.

        Returns ``(actions, fallback, held, seconds)``: ``fallback``
        the rows pi_b serves, ``held`` those the latch was already
        holding, ``seconds`` spent in the assemble (routing,
        validation and table reads, since ``start``), forward and
        fallback stages.

        A learned policy's forward (and its pi_phi posterior, drawn
        from the cell's own generator) runs once per (cell, snapshot
        policy), the batch shape every digest was recorded under: a
        matrix product's rows are not bit-stable across batch sizes
        (gemv against gemm kernels), so rows of different cells are
        not stacked into one forward.
        """
        actions = np.empty((plan.rows, NUM_ACTIONS))
        for table, rows in plan.tables:
            actions[rows] = table.act_rows(states[rows])
        assembled = time.perf_counter()
        for policy, rows in plan.learned:
            actions[rows] = policy.act_rows(states[rows])
        forwarded = time.perf_counter()
        fallback = held = plan.no_fallback
        if plan.learned:
            held = self._latched[plan.slice_ids]
            fallback = held
            if plan.posteriors:
                mu = np.empty(len(plan.eq8_rows))
                sigma = np.empty(len(plan.eq8_rows))
                for policy, rows, span in plan.posteriors:
                    mu[span], sigma[span] = policy.cost_to_go(
                        states[rows])
                # Eq. 8: cumulative cost + the pi_phi posterior beyond
                # the episode budget means pi_b takes over
                watched = states[plan.eq8_rows]
                thresholds = watched[:, 7] * plan.eq8_horizon  # T*C_max
                cumulative = watched[:, 8] * thresholds
                expected = cumulative + mu + plan.eq8_eta * sigma
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

    def _price(self, plan: _Plan, actions: np.ndarray):
        """Price every cell's allocations into capacity (Eq. 14), in
        place; returns per-cell ``(rounds, projected)``.

        A cell's coordinator raises ``beta_k`` while resource ``k`` is
        over-requested (warm-started across slots); allocations respond
        as price-takers, ``a_k = proposal_k / (1 + beta_k)``
        (:meth:`_Plan.allocate`), and only the cells still over
        capacity -- and under their round limit
        -- take another sub-gradient round.  A final projection
        guarantees feasibility for the cells the rounds did not fit:
        infrastructure capacity is physical.
        """
        requested = actions[:, _KIND_COLUMNS].T
        prices = self._betas[plan.index]
        totals = plan.allocate(requested, prices)
        rounds = np.ones(len(plan.cells), dtype=np.intp)
        over = (totals > plan.limit).any(axis=1)
        live = over & (rounds < plan.max_rounds)
        while live.any():
            rounds += live
            prices = np.where(
                live[:, None],
                np.maximum(prices + plan.step * (totals - _CAPACITY),
                           0.0),
                prices)
            totals = plan.allocate(requested, prices)
            over = (totals > plan.limit).any(axis=1)
            live = over & (rounds < plan.max_rounds)
        if rounds.max() > 1:
            self._betas[plan.index] = prices
            self._counters["extra_rounds"] += int(rounds.sum()) \
                - len(rounds)
        allocated = plan.allocated
        if over.any():
            scale = np.where(totals > plan.limit,
                             _CAPACITY / np.maximum(totals, 1e-12), 1.0)
            allocated = allocated * scale.T[:, plan.cell_of_row]
            self._counters["projections"] += int(over.sum())
        actions[:, _KIND_COLUMNS] = allocated.T
        return rounds, over

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
        # either at the coordinator's prices alone or only after the
        # final capacity projection clipped the cell.
        rows = block[:, _ROWS]
        clipped = 0.0
        if sums[_PROJECTED]:
            clipped = float(rows @ block[:, _PROJECTED])
            found.lazy("projections").inc(sums[_PROJECTED])
            found.lazy("admissions", "outcome", "projected").inc(clipped)
        if decisions > clipped:
            found.lazy("admissions", "outcome", "priced").inc(
                decisions - clipped)
        found.batch_size.observe_many(rows)
        found.batch_latency.observe_many(block[:, _ELAPSED])
        found.decision_latency.observe_many(block[:, _ELAPSED] / rows)
        found.rounds.observe_many(block[:, _ROUNDS])
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
        self.rounds = telemetry.histogram("coordination_rounds")
        self.stages = [telemetry.histogram(f"stage_{stage}_ms")
                       for stage in DECISION_STAGES]

    def lazy(self, name: str, label: Optional[str] = None,
             value: Optional[str] = None):
        counter = self._lazy.get((name, value))
        if counter is None:
            counter = self._lazy[name, value] = self._telemetry.counter(
                name, {label: value} if label else None)
        return counter
