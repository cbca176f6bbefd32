"""Scenario-driven load generation against the decision service.

:class:`LoadGenerator` closes the serving loop: it instantiates any
registered scenario from :mod:`repro.scenarios` (optionally re-populated
to N slices via :func:`~repro.scenarios.spec.population`), has every
slot's observations decided by a :class:`~repro.serve.service
.SlicingService`, applies the returned allocations to the simulator,
and reports what a load test should: decisions/sec, p50/p99 decision
latency, the SLA-violation rate of the traffic actually served, and
the fallback rate.

:func:`drive_lockstep` is the one loop: every slot it has all the
active cells' rows decided by one :meth:`~repro.serve.service
.DecisionCore.decide_rows` call on the engine's stacked observations,
steps all the cells' simulators in one
:class:`~repro.engine.batch.BatchSimulator` kernel evaluation, and
keeps the books in arrays (:class:`_Lockstep`): per-(cell, slice) cost
and usage accumulators updated by one indexed add per slot, served
actions and simulated latencies appended to per-run buffers.  Once per
cell and episode -- or right before anything reads a registry (an
attached :class:`~repro.obs.slo.SloEvaluator`, ``finish_run``) -- a
cell's buffered slots are folded into its own telemetry in bulk and
into its SHA-256 decision stream.  ``run()`` drives one cell, a fleet
shard drives all of its cells; the cells' reports, digests and
telemetry are the same either way.

Throughput is measured over *service* time (a cell's row-proportional
share of every ``decide_rows`` call it took part in), not simulator
time -- the simulator is the client here.  Reports carry a
``decision_digest`` (SHA-256 over every action served, in order) so
two runs from the same snapshot and seed can be byte-compared: the CI
smoke job replays 100 decisions twice and asserts the digests match.

The incremental API (``begin_run`` / ``begin_episode`` / ``serve_slot``
/ ``record_step`` / ``end_episode`` / ``finish_run``) is the one-cell
edge over the same books for outside drivers that re-trace the loop
with dicts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentConfig, NUM_ACTIONS
from repro.engine.batch import BatchSimulator, _ranges
from repro.obs.metrics import Telemetry
from repro.obs.slo import SloEvaluator
from repro.scenarios.spec import ScenarioSpec, population
from repro.serve.policy_store import PolicySnapshot
from repro.serve.service import (
    PENDING_SLOTS,
    DecisionCore,
    SlicingService,
)
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
        #: The cell's rows, run after run: its config's slices (the
        #: simulator's managed slices), in order.
        self._names = [spec.name for spec in self.cfg.slices]
        #: The books of the run this cell is part of, and the cell's
        #: index in them (:meth:`begin_run` / :func:`drive_lockstep`).
        self._run: Optional[_Lockstep] = None
        self._cell = 0

    # ---- incremental driving API ------------------------------------
    #
    # The one-cell, dict-speaking edge over `_Lockstep`, for outside
    # drivers re-tracing `drive_lockstep` cell by cell.

    def begin_run(self, episodes: int = 1,
                  max_decisions: Optional[int] = None) -> None:
        """Arm the accounting of a new run of this cell alone."""
        _Lockstep([self], episodes, max_decisions)

    @property
    def want_more_episodes(self) -> bool:
        return self._run.wants_more(self._cell)

    def begin_episode(self, observations: np.ndarray) -> None:
        """Start one episode from the initial observation rows
        (``slice_names`` order) of the simulator the driver just
        reset."""
        self._run.begin_episode(self._cell, observations)

    def serve_slot(self) -> Dict[str, np.ndarray]:
        """One decision batch from the held observations, into the
        run's books.  Returns the actions to apply to the simulator."""
        return dict(zip(self._names, self._run.serve([self._cell])))

    def record_step(self, costs: Dict[str, float],
                    usages: Dict[str, float],
                    observations: Dict[str, np.ndarray],
                    latencies: Optional[Dict[str, float]] = None
                    ) -> None:
        """Fold one slot's outcome into the episode totals and hold
        the observations for the next decision.

        ``latencies`` carries each slice's simulated end-to-end slot
        latency (transport + core + edge, ms) -- a *deterministic*
        signal, unlike the wall-clock ``decision_latency_ms``, which
        is what makes latency-SLO incident timelines reproducible.
        """
        names = self._names
        self._run.record(
            [self._cell],
            np.asarray([costs[name] for name in names], dtype=float),
            np.asarray([usages[name] for name in names], dtype=float),
            np.stack([observations[name] for name in names]),
            None if latencies is None else np.asarray(
                [latencies[name] for name in names], dtype=float))

    def end_episode(self) -> None:
        """Close one episode's per-slice SLA accounting."""
        self._run.end_episode(self._cell)

    def finish_run(self) -> LoadReport:
        """Assemble the :class:`LoadReport` of the driven run."""
        return self._run.report(self._cell)

    def run(self, episodes: int = 1,
            max_decisions: Optional[int] = None) -> LoadReport:
        """Serve ``episodes`` full episodes (or stop after
        ``max_decisions`` decisions, mid-episode if need be)."""
        drive_lockstep([self], episodes, max_decisions)
        return self.finish_run()


_ACTION_BYTES = NUM_ACTIONS * np.dtype(np.float64).itemsize


class _CellBooks:
    """What one cell's run accounting keeps that is not an array:
    instrument handles, the decision stream, the per-episode SLA
    lists, and where its slices sit in the stream's byte layout."""

    def __init__(self, generator: LoadGenerator) -> None:
        names = generator._names
        apps = [spec.app for spec in generator.cfg.slices]
        self.digest = hashlib.sha256()
        self.episodes_run = 0
        self.usage: Dict[str, List[float]] = {}
        self.violation: Dict[str, List[float]] = {}
        tel = generator.telemetry
        self.latency = tel.histogram("slice_latency_ms")
        app_names = sorted(set(apps))
        #: per-app latency split: (histogram, the app's columns)
        self.latency_by_app = [
            (tel.histogram("slice_latency_ms", {"app": app}),
             np.flatnonzero([slice_app == app for slice_app in apps]))
            for app in app_names]
        self.slots = tel.counter("slice_slots")
        self.cost = tel.counter("slice_cost_total")
        self.sla_episodes = tel.counter("sla_episodes")
        self.sla_violations = tel.counter("sla_violations")
        # per-app SLA taxonomy, mirroring the latency-by-app split, so
        # diagnosis can tell which application template is breaching
        self.sla_episodes_by_app = {
            app: tel.counter("sla_episodes", {"app": app})
            for app in app_names}
        self.sla_violations_by_app = {
            app: tel.counter("sla_violations", {"app": app})
            for app in app_names}
        # One slot of the decision stream is ``name || action bytes``
        # per slice in sorted-name order: a byte row with the names in
        # place and a hole per action.
        self.order = np.asarray(
            sorted(range(len(names)), key=names.__getitem__),
            dtype=np.intp)
        pieces, holes = [], []
        width = 0
        for column in self.order:
            encoded = names[column].encode("utf-8")
            pieces += [np.frombuffer(encoded, dtype=np.uint8),
                       np.zeros(_ACTION_BYTES, dtype=np.uint8)]
            width += len(encoded) + _ACTION_BYTES
            holes.append(np.arange(width - _ACTION_BYTES, width))
        self.stream_row = np.concatenate(pieces)
        self.stream_holes = np.concatenate(holes)

    def stream(self, actions: np.ndarray) -> np.ndarray:
        """The decision-stream bytes of ``(slots, S, NUM_ACTIONS)``
        served actions, slot-major."""
        out = np.tile(self.stream_row, (len(actions), 1))
        out[:, self.stream_holes] = np.ascontiguousarray(
            actions[:, self.order], dtype=np.float64
        ).view(np.uint8).reshape(len(actions), -1)
        return out


class _View:
    """Index vectors of one set of active cells over the run's fixed
    row layout (every cell's slices, cell-major)."""

    def __init__(self, run: "_Lockstep", cells: Sequence[int]) -> None:
        self.cells = list(cells)
        everyone = self.cells == run.everyone
        index = np.asarray(self.cells, dtype=np.intp)
        self.counts = run.starts[index + 1] - run.starts[index]
        ends = np.cumsum(self.counts)
        #: the cells' rows in the run layout
        self.row_ids = _ranges(run.starts, index)
        self.row_cells = run.cell_of_row[self.row_ids]
        #: the same, as cheap as they come when every cell is active
        self.index = slice(None) if everyone else index
        self.rows = slice(None) if everyone else self.row_ids
        self.share = self.counts / ends[-1]
        self.names = [run.generators[cell]._names for cell in self.cells]
        #: each cell's rows of a decided action matrix
        self.spans = [slice(int(lo), int(hi))
                      for lo, hi in zip(ends - self.counts, ends)]
        self.watched = [cell for cell in self.cells
                        if run.generators[cell].slo is not None]


class _Lockstep:
    """The books of one lockstep run over ``C`` cells, in arrays.

    Rows are every cell's slices, cell-major, fixed for the run
    (``starts[c]:starts[c + 1]`` are cell ``c``'s).  Per row: the held
    observation the next decision reads and the episode's cost / usage
    accumulators; per cell: decisions served, fallbacks, service time,
    slots recorded.  Served actions, costs and simulated latencies of
    the slots a cell has not folded yet sit in ``(PENDING_SLOTS, R)``
    buffers at the cell's own pending index; :meth:`fold` turns them
    into bulk telemetry updates and one decision-stream update, and
    runs at every episode end, before anything reads the cell's
    registry, and when a buffer is full.
    """

    def __init__(self, generators: Sequence[LoadGenerator],
                 episodes: int, max_decisions: Optional[int]) -> None:
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self.generators = list(generators)
        for generator in self.generators:
            if generator._run is not None:      # an unfinished run's
                generator._run.fold(generator._cell)    # last slots
        count = len(self.generators)
        self.everyone = list(range(count))
        self.episodes_wanted = episodes
        self.max_decisions = max_decisions
        self.core = DecisionCore([g.service for g in self.generators])
        self.starts = np.concatenate(
            ([0], np.cumsum([len(g._names) for g in self.generators])))
        rows = int(self.starts[-1])
        self.cell_of_row = np.repeat(np.arange(count),
                                     np.diff(self.starts))
        self.states = np.zeros((rows, STATE_DIM))
        self.cost = np.zeros(rows)
        self.usage = np.zeros(rows)
        self.slots = np.zeros(count, dtype=np.intp)
        self.served = np.zeros(count, dtype=np.intp)
        self.fallbacks = np.zeros(count, dtype=np.intp)
        self.service_time = np.zeros(count)
        self.recorded = np.zeros(count, dtype=np.intp)
        self.stopped = np.zeros(count, dtype=bool)
        self.pending = np.zeros(count, dtype=np.intp)
        self.actions = np.empty((PENDING_SLOTS, rows, NUM_ACTIONS))
        self.costs = np.empty((PENDING_SLOTS, rows))
        self.latencies = np.empty((PENDING_SLOTS, rows))
        self.books = [_CellBooks(g) for g in self.generators]
        self.wall_start = time.perf_counter()
        self._view: Optional[_View] = None
        for cell, generator in enumerate(self.generators):
            generator._run, generator._cell = self, cell

    def _view_of(self, cells: Sequence[int]) -> _View:
        view = self._view
        if view is None or cells != view.cells:
            view = self._view = _View(self, cells)
        return view

    def _bounds(self, cell: int) -> slice:
        return slice(int(self.starts[cell]), int(self.starts[cell + 1]))

    # ---- the slot ----------------------------------------------------

    def wants_more(self, cell: int) -> bool:
        return (not self.stopped[cell]
                and self.books[cell].episodes_run < self.episodes_wanted)

    def begin_episode(self, cell: int, observations: np.ndarray) -> None:
        """Start one of ``cell``'s episodes from its simulator's
        initial observation rows."""
        self.generators[cell].service.begin_episode()   # re-arm Eq. 8
        rows = self._bounds(cell)
        self.cost[rows] = 0.0
        self.usage[rows] = 0.0
        self.slots[cell] = 0
        self.states[rows] = observations

    def serve(self, cells: Sequence[int]) -> np.ndarray:
        """Decide one slot for ``cells`` from the held observations;
        returns the ``(R, NUM_ACTIONS)`` actions, cell-major."""
        view = self._view_of(cells)
        t0 = time.perf_counter()
        out = self.core.decide_rows(self.states[view.rows], view.names,
                                    view.cells)
        # what a cell spent being decided for: its rows' share
        self.service_time[view.index] += (
            time.perf_counter() - t0) * view.share
        self.actions[self.pending[view.row_cells], view.row_ids] = \
            out.actions
        self.fallbacks[view.index] += out.fallbacks
        self.served[view.index] += view.counts
        if self.max_decisions is not None:
            self.stopped[view.index] = \
                self.served[view.index] >= self.max_decisions
        return out.actions

    def split(self, cells: Sequence[int],
              actions: np.ndarray) -> List[Optional[np.ndarray]]:
        """:meth:`serve`'s matrix as the per-world action list the
        engine steps (``None`` for the cells sitting out)."""
        worlds: List[Optional[np.ndarray]] = [None] * len(self.generators)
        for cell, span in zip(cells, self._view_of(cells).spans):
            worlds[cell] = actions[span]
        return worlds

    def record(self, cells: Sequence[int], costs: np.ndarray,
               usages: np.ndarray, observations: np.ndarray,
               latencies: Optional[np.ndarray],
               dones: Sequence[bool] = ()) -> List[int]:
        """Book one stepped slot of ``cells`` (stacked rows,
        cell-major) and hold the observations for the next decision;
        returns the cells whose episode is over (done, or stopped at
        ``max_decisions``).  A slot recorded without ``latencies``
        leaves no latency sample."""
        view = self._view_of(cells)
        rows, index = view.rows, view.index
        self.cost[rows] += costs
        self.usage[rows] += usages
        slot = self.pending[view.row_cells]
        self.costs[slot, view.row_ids] = costs
        self.latencies[slot, view.row_ids] = \
            np.nan if latencies is None else latencies
        self.states[rows] = observations
        self.slots[index] += 1
        self.recorded[index] += 1
        self.pending[index] += 1
        for cell in np.flatnonzero(self.pending == PENDING_SLOTS):
            self.fold(int(cell))
        for cell in view.watched:
            generator = self.generators[cell]
            at = int(self.recorded[cell])
            if at % generator.slo_every == 0:
                self.fold(cell)
                generator.slo.observe(generator.telemetry, at=float(at))
        over = self.stopped[index]
        if len(dones):
            over = over | np.asarray(dones)
        return [view.cells[i] for i in np.flatnonzero(over)]

    # ---- per cell and episode ----------------------------------------

    def fold(self, cell: int) -> None:
        """Fold ``cell``'s buffered slots into its telemetry and its
        decision stream: per instrument one bulk update that leaves
        what one update per slot and slice, in slot-major order, would
        have left."""
        pending = self.pending[cell]
        if not pending:
            return
        self.pending[cell] = 0
        rows = self._bounds(cell)
        books = self.books[cell]
        costs = self.costs[:pending, rows]
        books.slots.inc(costs.size)
        books.cost.inc_many(np.maximum(costs, 0.0))
        latencies = self.latencies[:pending, rows]
        books.latency.observe_many(_present(latencies))
        for histogram, columns in books.latency_by_app:
            histogram.observe_many(_present(latencies[:, columns]))
        books.digest.update(books.stream(self.actions[:pending, rows]))
        self.core.flush((cell,))

    def end_episode(self, cell: int) -> None:
        """Close one of ``cell``'s episodes: fold its slots, then its
        per-slice SLA accounting."""
        self.fold(cell)
        books = self.books[cell]
        books.episodes_run += 1
        slots = int(self.slots[cell])
        if slots == 0:
            return
        rows = self._bounds(cell)
        mean_costs = (self.cost[rows] / slots).tolist()
        mean_usages = (self.usage[rows] / slots).tolist()
        generator = self.generators[cell]
        for spec, mean_cost, mean_usage in zip(
                generator.cfg.slices, mean_costs, mean_usages):
            violated = float(spec.sla.violated(mean_cost))
            books.usage.setdefault(spec.name, []).append(mean_usage)
            books.violation.setdefault(spec.name, []).append(violated)
            books.sla_episodes.inc()
            books.sla_episodes_by_app[spec.app].inc()
            if violated:
                books.sla_violations.inc()
                books.sla_violations_by_app[spec.app].inc()

    def report(self, cell: int) -> LoadReport:
        """The :class:`LoadReport` of ``cell``'s part of the run."""
        self.fold(cell)
        wall_time = time.perf_counter() - self.wall_start
        generator = self.generators[cell]
        books = self.books[cell]
        usage = {name: float(np.mean(vals))
                 for name, vals in books.usage.items()}
        violation = {name: float(np.mean(vals))
                     for name, vals in books.violation.items()}
        latency = generator.telemetry.histogram("decision_latency_ms")
        decisions = int(self.served[cell])
        fallbacks = int(self.fallbacks[cell])
        service_time = float(self.service_time[cell])
        return LoadReport(
            scenario=generator.spec.name,
            slices=len(generator.cfg.slices),
            episodes=books.episodes_run,
            decisions=decisions,
            fallbacks=fallbacks,
            service_time_s=service_time,
            wall_time_s=wall_time,
            decisions_per_sec=(decisions / service_time
                               if service_time > 0 else 0.0),
            p50_latency_ms=latency.percentile(50.0),
            p99_latency_ms=latency.percentile(99.0),
            mean_usage=(float(np.mean(list(usage.values())))
                        if usage else 0.0),
            violation_rate=(float(np.mean(list(violation.values())))
                            if violation else 0.0),
            fallback_rate=(fallbacks / decisions if decisions else 0.0),
            decision_digest=books.digest.hexdigest(),
            per_slice_usage=usage,
            per_slice_violation=violation)


def _present(latencies: np.ndarray) -> np.ndarray:
    """The recorded samples of a latency block, in order (a slot
    recorded without latencies holds NaN)."""
    flat = latencies.ravel()
    missing = np.isnan(flat)
    return flat[~missing] if missing.any() else flat


def drive_lockstep(generators: List[LoadGenerator], episodes: int = 1,
                   max_decisions: Optional[int] = None) -> None:
    """Advance every cell's episodes through one decision core and one
    batched engine.

    Each slot decides every active cell's rows in one
    :meth:`~repro.serve.service.DecisionCore.decide_rows` call
    (per-cell fallback state, coordination, telemetry and digests are
    what each cell driven alone would have), then steps all the cells'
    simulators in one kernel evaluation.  Cells with shorter horizons
    roll into their next episode independently, and a cell that has
    served ``max_decisions`` stops after recording the slot it
    decided.  Callers read each cell's ``finish_run()``.
    """
    run = _Lockstep(generators, episodes, max_decisions)
    batch = BatchSimulator([g.simulator for g in generators])
    active = run.everyone
    for cell in active:
        run.begin_episode(cell, batch.reset_world(cell))
    while active:
        step = batch.step(run.split(active, run.serve(active)))
        finished = run.record(active, step.costs, step.usages,
                              step.observations, step.latencies,
                              step.dones)
        retired = []
        for cell in finished:
            run.end_episode(cell)
            if run.wants_more(cell):
                run.begin_episode(cell, batch.reset_world(cell))
            else:
                retired.append(cell)
        if retired:
            active = [cell for cell in active if cell not in retired]
