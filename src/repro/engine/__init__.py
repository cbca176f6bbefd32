"""The batched episode engine.

``repro.engine`` turns the paper's one-world, one-slot-at-a-time MDP
into flat array math:

* :mod:`repro.engine.kernels` -- the vectorised slot kernels shared by
  the scalar :class:`~repro.sim.env.ScenarioSimulator` (``R = S``
  rows) and the batch engine, so both are bit-identical by
  construction;
* :mod:`repro.engine.arena` -- :class:`KernelArena`, the layout-keyed
  slot-arena allocator that lets a warmed kernel pass run with zero
  heap array allocations;
* :mod:`repro.engine.batch` -- :class:`BatchSimulator`, stepping B
  heterogeneous worlds in lockstep with per-world RNG stream parity;
* :mod:`repro.engine.policies` -- the :class:`BatchPolicy` protocol,
  the one name -> per-slice-policy router behind the rule-based /
  model-based / snapshot batch policies, batched projection, and the
  vectorised-env OnRL learner.

The layers above consume it through
:func:`repro.experiments.harness.run_episodes`, the fleet shard's
vector driver, and the ``--engine`` CLI switches.
"""

from repro.engine.arena import KernelArena
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
    VecOnRLAgent,
    project_actions_batch,
)

__all__ = [
    "BatchPolicy",
    "BatchSimulator",
    "BatchStepResult",
    "KernelArena",
    "ConstantBatchPolicy",
    "ModelBasedBatchPolicy",
    "RoutedBatchPolicy",
    "RuleBasedBatchPolicy",
    "SliceRows",
    "VecOnRLAgent",
    "WorldConditions",
    "concat_rows",
    "evaluate_rows",
    "project_actions_batch",
    "rows_for_network",
]
