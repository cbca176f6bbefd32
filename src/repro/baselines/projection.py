"""Projection: proportional scale-down of over-requested resources.

"The existing method requires domain managers to scale down all actions
of slices, i.e., projection, if the summation of requested resources
surpluses the capacity of the infrastructure" (paper Sec. 4).  Both the
rule-based Baseline and OnRL use this; OnSlicing replaces it with the
action modifier + parameter coordination and Table 3 quantifies why
(projection under-provisions slices and violates SLAs).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.engine.policies import project_actions_batch


def project_actions(actions: Mapping[str, np.ndarray],
                    capacity: float = 1.0) -> Dict[str, np.ndarray]:
    """Scale down each over-requested resource kind proportionally.

    For every constrained kind ``k`` with ``sum_i a_i_k > capacity``,
    every slice's ``a_i_k`` is multiplied by ``capacity / sum``; other
    dimensions are untouched.  Returns new arrays (inputs unmodified).
    The one-world call of
    :func:`repro.engine.policies.project_actions_batch`.
    """
    if not actions:
        return {}
    projected = project_actions_batch(
        np.stack([np.asarray(action, dtype=float)
                  for action in actions.values()]),
        np.array([0, len(actions)]), capacity)
    return dict(zip(actions, projected))
