"""Batched policies: stacked observations in, stacked actions out.

The :class:`BatchPolicy` protocol is the engine-side counterpart of
the per-slice ``act``/``act_vector`` interfaces: a policy maps an
``(R, STATE_DIM)`` observation matrix (plus per-row slice metadata) to
an ``(R, NUM_ACTIONS)`` action matrix in one shot.  The paper's
comparison policies are per-slice objects, so the batch form of all of
them is one router, :class:`RoutedBatchPolicy`: every row goes to the
per-slice policy its slice name resolves to, and rows that share a
policy are served by one ``policy.act_rows(states)`` call --

* the rule-based Baseline's ``act_rows`` is one ``searchsorted`` over
  the traffic column plus a row gather from its bin table;
* Model_Based's evaluates its closed-form program row by row;
* a learned policy's (a snapshot's, an OnRL learner's) is one
  ``MLP.predict_batch`` forward.

:func:`project_actions_batch` applies the paper's projection
(Sec. 4) per world across a whole batch, and :func:`lockstep` drives
a :class:`~repro.engine.batch.BatchSimulator` under one batch policy
-- the one loop evaluation, fuzzing, OnRL training and the offline
pi_b rollouts share -- with :func:`episode_totals` its per-episode
fold.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.config import NUM_ACTIONS
from repro.sim.network import CONSTRAINED_RESOURCES

#: Constrained action columns in CONSTRAINED_RESOURCES order.
_KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(),
                            dtype=np.intp)


class BatchPolicy(Protocol):
    """Maps stacked observations to stacked actions.

    ``slice_names`` gives the per-row slice identity (same length as
    ``states``); implementations that are slice-agnostic may ignore
    it.
    """

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        ...


class ConstantBatchPolicy:
    """Every slice plays one fixed allocation (background/bench load)."""

    def __init__(self, action: np.ndarray) -> None:
        action = np.asarray(action, dtype=float)
        if action.shape != (NUM_ACTIONS,):
            raise ValueError(f"action must have {NUM_ACTIONS} dims")
        self.action = action

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        return np.broadcast_to(self.action,
                               (len(states), NUM_ACTIONS)).copy()


class RoutedBatchPolicy:
    """Per-slice policies over a batch: route each row by slice name.

    ``policies`` maps slice names to per-slice policies exposing
    ``app`` and ``act_rows(states)``.  A row's name resolves to the
    policy of that exact name, else to the first policy of the same
    leading app prefix (``MAR7`` -> the ``mar`` policy, mirroring how
    population scenarios cycle the three fitted apps), else to the
    first policy.
    """

    def __init__(self, policies: Mapping[str, object]) -> None:
        if not policies:
            raise ValueError("need at least one per-slice policy")
        self.policies = dict(policies)
        self._by_app: Dict[str, object] = {}
        for policy in self.policies.values():
            self._by_app.setdefault(policy.app, policy)
        self._fallback = next(iter(self.policies.values()))
        # The routing plan of the last name sequence served: a batch
        # driver asks with the same names slot after slot.
        self._plan_names: List[str] = []
        self._plan: List[tuple] = []

    def _resolve(self, name: str):
        policy = self.policies.get(name)
        if policy is not None:
            return policy
        return self._by_app.get(name[:3].lower(), self._fallback)

    def _route(self, slice_names: Sequence[str]) -> List[tuple]:
        """``(policy, row indices)`` per resolved policy, in order of
        first appearance; recomputed only when the names change."""
        if not isinstance(slice_names, list):
            slice_names = list(slice_names)
        if slice_names != self._plan_names:
            groups: Dict[int, tuple] = {}
            for row, name in enumerate(slice_names):
                policy = self._resolve(name)
                groups.setdefault(id(policy), (policy, []))[1].append(
                    row)
            self._plan = [(policy, np.asarray(rows, dtype=np.intp))
                          for policy, rows in groups.values()]
            self._plan_names = list(slice_names)
        return self._plan

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        actions = np.empty((len(states), NUM_ACTIONS))
        for policy, rows in self._route(slice_names):
            actions[rows] = policy.act_rows(states[rows])
        return actions


#: The static methods' batch policies are the router itself, over
#: fitted :class:`~repro.baselines.rule_based.RuleBasedPolicy` tables
#: and per-slice :class:`~repro.baselines.model_based.ModelBasedPolicy`
#: programs respectively.
RuleBasedBatchPolicy = ModelBasedBatchPolicy = RoutedBatchPolicy


def project_actions_batch(actions: np.ndarray,
                          offsets: np.ndarray,
                          capacity: float = 1.0) -> np.ndarray:
    """Per-world proportional projection over a stacked action matrix.

    ``offsets[i]:offsets[i+1]`` delimit world ``i``'s rows; for every
    constrained resource kind whose within-world total exceeds
    ``capacity``, that world's entries scale by ``capacity / total``
    (the paper's projection, Sec. 4), all other dimensions untouched.
    Returns a new matrix.
    """
    projected = np.asarray(actions, dtype=float).copy()
    requested = projected[:, _KIND_COLUMNS]
    world_of = np.repeat(np.arange(len(offsets) - 1),
                         np.diff(offsets))
    totals = np.zeros((len(offsets) - 1, len(_KIND_COLUMNS)))
    np.add.at(totals, world_of, requested)
    over = totals > capacity
    scale = np.where(over & (totals > 0),
                     capacity / np.where(totals > 0, totals, 1.0),
                     1.0)
    projected[:, _KIND_COLUMNS] = requested * scale[world_of]
    return projected


def lockstep(batch, policy, episodes: int = 1, project: bool = True):
    """The lockstep loop: every world of ``batch`` for ``episodes``
    episodes under one :class:`BatchPolicy`.

    Per slot the active worlds' observations are stacked, the policy
    is asked once, each world's rows are projected (paper Sec. 4;
    ``project=False`` executes the policy's rows as they are) and all
    of them advance through one ``batch.step``.  Yields
    ``(states, matrix, step)`` per slot -- the observations the policy
    saw, the action matrix that was executed and the
    :class:`~repro.engine.batch.BatchStepResult`, all in
    ``step.worlds`` order with ``step.offsets`` delimiting worlds.
    Once the consumer has folded the slot, a world whose episode ended
    is reset if it has episodes left and retired otherwise, so the
    consumer reads a finished world's simulator before it restarts.

    Between two slots only what a finished world changes is redone:
    the next stacked observations are the step's own, with a reset
    world's rows swapped in and a retired world's dropped, and the
    name list and offsets are rebuilt when a world retires.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    count = batch.num_worlds
    remaining = [episodes - 1] * count
    worlds = list(range(count))
    stacked = np.concatenate([batch.reset_world(b) for b in worlds])
    names = [batch.slice_names(b) for b in worlds]
    flat = offsets = None
    while worlds:
        if flat is None:            # first slot, or a world retired
            flat = list(itertools.chain.from_iterable(names))
            offsets = [0, *itertools.accumulate(map(len, names))]
        matrix = np.asarray(policy.act_batch(stacked, flat),
                            dtype=float)
        if project:
            matrix = project_actions_batch(matrix, offsets)
        actions: List[Optional[np.ndarray]] = [None] * count
        for i, b in enumerate(worlds):
            actions[b] = matrix[offsets[i]:offsets[i + 1]]
        step = batch.step(actions)
        yield stacked, matrix, step
        stacked = step.observations
        if not any(step.dones):
            continue
        pieces, kept, retired = [], 0, []
        for i, done in enumerate(step.dones):
            if not done:
                continue
            pieces.append(stacked[offsets[kept]:offsets[i]])
            kept = i + 1
            b = worlds[i]
            if remaining[b] > 0:
                pieces.append(batch.reset_world(b))
                remaining[b] -= 1
            else:
                retired.append(i)
        pieces.append(stacked[offsets[kept]:])
        stacked = np.concatenate(pieces)
        for i in reversed(retired):
            del worlds[i], names[i]
            flat = None


def episode_totals(slots, num_worlds: int
                   ) -> List[List[Dict[str, Dict[str, float]]]]:
    """Fold :func:`lockstep` slots into per world, per episode, per
    slice ``{"cost", "usage"}`` sums (``harness.run_episodes``' result).

    Each slot's cost and usage vectors are added, element by element,
    onto running totals laid out like the step's rows (the same
    ``+=`` in slot order a per-slice loop makes, so every total is
    the same float); a world's dicts are built when its episode ends.
    """
    results: List[List[Dict]] = [[] for _ in range(num_worlds)]
    worlds: List[int] = []
    offsets = [0]
    cost = usage = np.zeros(0)
    for _, _, step in slots:
        if step.worlds != worlds:
            # the stepped set changed: carry the surviving worlds'
            # running totals over to the new row layout
            carried = {b: (cost[lo:hi], usage[lo:hi])
                       for b, lo, hi in zip(worlds, offsets,
                                            offsets[1:])}
            worlds = step.worlds
            offsets = step.offsets.tolist()
            blank = np.zeros(offsets[-1])
            cost, usage = blank.copy(), blank.copy()
            for b, lo, hi in zip(worlds, offsets, offsets[1:]):
                if b in carried:
                    cost[lo:hi], usage[lo:hi] = carried[b]
        cost += step.costs
        usage += step.usages
        if not any(step.dones):
            continue
        for i, done in enumerate(step.dones):
            if done:
                rows = slice(offsets[i], offsets[i + 1])
                results[worlds[i]].append({
                    name: {"cost": c, "usage": u}
                    for name, c, u in zip(step.names[i],
                                          cost[rows].tolist(),
                                          usage[rows].tolist())})
                cost[rows] = usage[rows] = 0.0
    return results
