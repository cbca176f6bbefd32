"""Parameter coordinator: the dual side of distributed coordination.

Paper Eq. 14: each domain manager updates its coordinating parameters by
sub-gradient descent on the over-request,

    beta_k <- [beta_k + eps * (sum_i a_hat_i_k - L_k_max)]^+

so beta grows while a resource is over-requested and decays back to zero
once the slices fit.  "To accelerate the convergence of the
interactions, we use the coordinating parameters at the last time slot
as the start point at the current time slot" -- the warm start is
:meth:`ParameterCoordinator.begin_slot`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

#: ``L_k_max``: every constrained resource's capacity, normalised.
CAPACITY = 1.0


class ParameterCoordinator:
    """Tracks ``beta_k`` for the resource kinds of one domain manager."""

    def __init__(self, resource_kinds: Iterable[str],
                 step_size: float = 0.5, warm_start: bool = True) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.resource_kinds = tuple(resource_kinds)
        if not self.resource_kinds:
            raise ValueError("coordinator needs at least one resource")
        self.step_size = step_size
        self.warm_start = warm_start
        self._beta: Dict[str, float] = {
            kind: 0.0 for kind in self.resource_kinds}
        self._carry: Dict[str, float] = dict(self._beta)

    @property
    def beta(self) -> Dict[str, float]:
        """Current coordinating parameters (copy)."""
        return dict(self._beta)

    def begin_slot(self) -> Dict[str, float]:
        """Initialise beta for a new slot (warm start or zeros)."""
        if self.warm_start:
            self._beta = dict(self._carry)
        else:
            self._beta = {kind: 0.0 for kind in self.resource_kinds}
        return self.beta

    def update(self, requested_totals: Mapping[str, float]
               ) -> Dict[str, float]:
        """One sub-gradient step from the total requested shares.

        ``requested_totals[kind]`` is ``sum_i a_hat_i_k``; the capacity
        ``L_k_max`` is :data:`CAPACITY`.
        """
        for kind in self.resource_kinds:
            total = float(requested_totals.get(kind, 0.0))
            residual = total - CAPACITY
            self._beta[kind] = max(
                self._beta[kind] + self.step_size * residual, 0.0)
        self._carry = dict(self._beta)
        return self.beta

    def satisfied(self, requested_totals: Mapping[str, float],
                  tolerance: float = 1e-3) -> bool:
        """True when no owned resource is over-requested."""
        return all(
            float(requested_totals.get(kind, 0.0))
            <= CAPACITY + tolerance
            for kind in self.resource_kinds)

    def reset(self) -> None:
        self._beta = {kind: 0.0 for kind in self.resource_kinds}
        self._carry = dict(self._beta)
