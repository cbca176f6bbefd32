"""The batched episode engine.

``repro.engine`` turns the paper's one-world, one-slot-at-a-time MDP
into flat array math:

* :mod:`repro.engine.kernels` -- the vectorised slot kernels: every
  slot evaluation in the repo (the stepper, the what-if
  ``evaluate_slot``, the pi_b grid search) is one ``evaluate_rows``;
* :mod:`repro.engine.batch` -- :class:`BatchSimulator`, the one world
  stepper: B heterogeneous worlds in lockstep with per-world RNG
  streams (``ScenarioSimulator.step`` is its ``B = 1`` case);
* :mod:`repro.engine.policies` -- the :class:`BatchPolicy` protocol,
  the one name -> per-slice-policy router behind the rule-based /
  model-based / snapshot / OnRL batch policies, batched projection,
  and the lockstep loop.

The layers above consume it through one loop,
:func:`repro.engine.policies.lockstep`: evaluation, fuzzing, OnRL
training, the offline pi_b rollouts and serving (every fleet shard
included).
"""

from repro.engine.batch import BatchSimulator, BatchStepResult
from repro.engine.kernels import (
    SliceRows,
    WorldConditions,
    concat_rows,
    evaluate_rows,
    rows_for_network,
)
from repro.engine.policies import (
    BatchPolicy,
    ConstantBatchPolicy,
    ModelBasedBatchPolicy,
    RoutedBatchPolicy,
    RuleBasedBatchPolicy,
    project_actions_batch,
)

__all__ = [
    "BatchPolicy",
    "BatchSimulator",
    "BatchStepResult",
    "ConstantBatchPolicy",
    "ModelBasedBatchPolicy",
    "RoutedBatchPolicy",
    "RuleBasedBatchPolicy",
    "SliceRows",
    "WorldConditions",
    "concat_rows",
    "evaluate_rows",
    "project_actions_batch",
    "rows_for_network",
]
