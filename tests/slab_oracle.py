"""The per-policy serving passes as they stood at commit ff13ceb, before
the decision core stacked a snapshot's policies as slabs, kept as the
test oracle for ``tests/test_serve_slabs.py`` (the
``tests/serve_oracle.py`` precedent).

``ParentPlan`` is that commit's ``serve/service.py::_Plan`` and
``propose`` its ``DecisionCore._propose``, verbatim: one pi_theta
forward per (snapshot policy, row count) and one pi_phi pass per
(snapshot policy, open-row count), each over a ``(G, n, STATE_DIM)``
stack of that policy's (cell) groups.  ``posterior`` is the method the
service's policy object had for it.  Two edits: ``propose`` is a
function of the core rather than its method (and calls
``posterior(policy, ...)``), and it also returns the posterior ``(mu,
sigma)`` of every pi_phi row (zero where the latch held the row;
``None`` when the plan has no pi_phi row) so the test can compare them
byte for byte.  Nothing under ``src/`` imports this module.

Below them, pi_phi's closed form as it stood at commit debe240 (the
oracle of ``tests/test_closed_form_oracle.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.config import NUM_ACTIONS
from repro.nn.bayesian import (
    _AS_COEFFS,
    _AS_P,
    _INV_SQRT_2PI,
    _SQRT_HALF,
    _Z_CLIP,
)
from repro.serve.service import _FIELDS, _ROWS, DecisionCore


def posterior(policy, states: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The pi_phi posterior ``(mu, sigma)``, each ``(G, n)``, of
    ``(G, n, STATE_DIM)`` groups of states."""
    mu, sigma = policy.estimator.predict_batch(states)
    return np.maximum(mu, 0.0), sigma


class ParentPlan:
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
        forwards: Dict[tuple, tuple] = {}
        #: ``(policy, stack, span)`` per learned (cell, snapshot policy)
        #: group with pi_phi rows: the group's rows are
        #: ``eq8_rows[span]``; ``stack`` is what groups must share to
        #: run as one pass: the snapshot object and policy
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
                policy = service._policies[key]
                stack = (id(service.snapshot), key)
                forwards.setdefault((stack, len(rows)),
                                    (policy, []))[1].append(rows)
                if policy.estimator is None or policy.baseline is None:
                    continue
                self.posteriors.append((policy, stack, slice(
                    len(eq8_rows), len(eq8_rows) + len(rows))))
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
        #: ``(policy, rows)`` per pi_theta forward: every learned
        #: (cell, snapshot policy) group of one stack and row count, as
        #: a ``(G, n)`` row index -- one slab per group
        self.forwards = [(policy, np.asarray(rows, dtype=np.intp))
                         for policy, rows in forwards.values()]
        self.eq8_rows = np.asarray(eq8_rows, dtype=np.intp)
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


def propose(self, plan: ParentPlan, states: np.ndarray,
            start: float):
    """Pre-projection actions of validated rows: tables, the
    pi_theta forwards, then Eq. 8 on the rows the latch does not
    already hold.

    Returns ``(actions, fallback, held, seconds)``: ``fallback``
    the rows pi_b serves, ``held`` those the latch was already
    holding, ``seconds`` spent in the assemble (routing,
    validation and table reads, since ``start``), forward and
    fallback stages.

    Each (cell, snapshot policy) group is a slab: the groups of
    one snapshot policy and row count -- every cell of a fleet
    serving one snapshot -- share one pi_theta forward, a ``(G, n,
    STATE_DIM)`` stack whose slab ``g`` numpy multiplies with the
    very BLAS call the group alone would make.  Rows of different
    groups are never merged into one matrix: a matrix product's
    rows are not bit-stable across row counts (gemv against gemm
    kernels), its slabs are.

    The switch is a one-way door, so a latched row has nothing
    left to ask pi_phi: a group's posterior covers its *open* rows
    only, and a group the latch holds whole drops out.  The groups
    left share one closed-form pass per snapshot policy and
    open-row count, a ``(G, n, STATE_DIM)`` stack of slabs
    (:meth:`~repro.nn.bayesian.BayesianMLP.predict`), so each
    group's ``(mu, sigma)`` is the float its own call gives.
    """
    actions = np.empty((plan.rows, NUM_ACTIONS))
    for table, rows in plan.tables:
        actions[rows] = table.act_rows(states[rows])
    assembled = time.perf_counter()
    for policy, rows in plan.forwards:
        actions[rows] = policy.act_rows(states[rows])
    forwarded = time.perf_counter()
    fallback = held = plan.no_fallback
    mu = sigma = None
    if plan.posteriors:
        # only pi_phi rows ever latch: without them there is no
        # latch to read
        held = self._latched[plan.slice_ids]
        open_ = ~held[plan.eq8_rows]
        watched = states[plan.eq8_rows]
        mu = np.zeros(len(open_))
        sigma = np.zeros(len(open_))
        # per stack and open-row count: the policy and each group's
        # open positions in eq8_rows
        passes: Dict[tuple, tuple] = {}
        for policy, stack, span in plan.posteriors:
            at = np.flatnonzero(open_[span]) + span.start
            if len(at):
                passes.setdefault((stack, len(at)),
                                  (policy, []))[1].append(at)
        for policy, ats in passes.values():
            at = np.asarray(ats)
            mu[at], sigma[at] = posterior(policy, watched[at])
        counters = self._counters
        counters["posterior_calls"] += len(passes)
        counters["posterior_rows"] += int(open_.sum())
        # Eq. 8: cumulative cost + the pi_phi posterior beyond the
        # episode budget means pi_b takes over; a latched row's
        # (zero) posterior is ORed into the latch it already holds
        thresholds = watched[:, 7] * plan.eq8_horizon  # T * C_max
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
    return actions, fallback, held, mu, sigma, [
        assembled - start, forwarded - assembled,
        time.perf_counter() - forwarded]


# ---- pi_phi's closed form as it stood at commit debe240 -------------
#
# The parent of the in-place closed form, verbatim but for the names:
# ``relu_moments`` as ``parent_relu_moments`` (with the ``_as_tail`` it
# calls), ``DensePosterior.moments`` as ``parent_moments(layer, ...)``
# and ``BayesianPosterior.predict`` as ``parent_predict(posterior,
# ...)``, each computing with numpy's own temporaries.
# ``tests/test_closed_form_oracle.py`` holds the module's functions to
# these byte for byte.


def _parent_as_tail(a: np.ndarray) -> np.ndarray:
    """``t P(t)`` of Abramowitz & Stegun 7.1.26 at ``a >= 0``, so that
    ``erfc(a) = t P(t) exp(-a^2)`` to ``|error| <= 1.5e-7``."""
    t = 1.0 / (1.0 + _AS_P * a)
    poly = _AS_COEFFS[0]
    for coeff in _AS_COEFFS[1:]:
        poly = poly * t + coeff
    return poly * t


def parent_relu_moments(mean: np.ndarray, var: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``max(X, 0)`` for ``X ~ N(mean, var)``:
    with ``z = mean / std``, ``E = mean Phi(z) + std phi(z)`` and
    ``E[x^2] = (mean^2 + var) Phi(z) + mean std phi(z)``.

    ``Phi`` is :func:`erf`'s formula in complementary form, ``Phi(-|z|)
    = erfc(|z| / sqrt 2) / 2``, which shares its exponential with
    ``phi`` and keeps the lower tail free of cancellation."""
    std = np.sqrt(var)
    z = np.minimum(np.maximum(mean / np.maximum(std, 1e-300), -_Z_CLIP),
                   _Z_CLIP)
    gauss = np.exp(-0.5 * z * z)
    lower = 0.5 * _parent_as_tail(_SQRT_HALF * np.abs(z)) * gauss
    cdf = np.where(z >= 0.0, 1.0 - lower, lower)
    spread = (_INV_SQRT_2PI * std) * gauss            # std * phi(z)
    first = mean * cdf + spread
    second = (mean * mean + var) * cdf + mean * spread
    return first, np.maximum(second - first * first, 0.0)


def parent_moments(self, x: np.ndarray, var=None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-activation ``(mean, variance)`` for an input of mean
    ``x`` whose units are independent with variance ``var``
    (``None``: a fixed input): ``x @ mu_W + mu_b`` and ``(var +
    x^2) @ sigma_W^2 + var @ mu_W^2 + sigma_b^2``.  ``x`` may carry
    leading batch axes.  The one copy of the expression: the ELBO
    forward (:meth:`VariationalDense._moments`) and
    :meth:`BayesianPosterior.predict` both read it."""
    act_mean = x @ self.weight_mu + self.bias_mu
    if var is None:
        act_var = (x ** 2) @ self.weight_var + self.bias_var
    else:
        act_var = ((var + x ** 2) @ self.weight_var
                   + var @ self.weight_mu_sq + self.bias_var)
    return act_mean, act_var


def parent_predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Posterior-predictive mean and standard deviation of ``x``,
    one input ``(in,)`` or inputs with any leading axes ``(...,
    in)`` (see :meth:`BayesianMLP.predict`)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    mean, var = np.atleast_2d(x), None
    for index, layer in enumerate(self.layers):
        if index:
            mean, var = parent_relu_moments(mean, var)
        mean, var = parent_moments(layer, mean, var)
    std = np.sqrt(var + self.noise_var)
    if single:
        return mean[0], std[0]
    return mean, std
