"""Checkpointing for OnSlicing agents.

Operational deployments reconfigure every 15 minutes for days; being
able to snapshot and restore an agent (all four policy networks, the
Gaussian head, the Lagrangian multiplier and the estimator's target
scaling) is table stakes for the paper's envisioned production use.
Checkpoints are plain ``numpy.savez`` archives -- no pickle, no code
execution on load.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from repro.core.agent import OnSlicingAgent


def _pack(prefix: str, arrays: List[np.ndarray],
          out: Dict[str, np.ndarray]) -> None:
    for i, arr in enumerate(arrays):
        out[f"{prefix}__{i:03d}"] = arr


def _unpack(prefix: str, data) -> List[np.ndarray]:
    keys = sorted(k for k in data.files if k.startswith(prefix + "__"))
    if not keys:
        raise KeyError(f"checkpoint has no arrays for {prefix!r}")
    return [data[k] for k in keys]


def save_agent(agent: OnSlicingAgent, path: str) -> None:
    """Snapshot an agent's learnable state to ``path`` (.npz)."""
    out: Dict[str, np.ndarray] = {}
    _pack("actor", agent.model.actor.get_weights(), out)
    _pack("critic", agent.model.critic.get_weights(), out)
    _pack("modifier", agent.modifier.network.get_weights(), out)
    _pack("surrogate",
          agent.modifier.surrogate.network.get_weights(), out)
    _pack("estimator",
          [p.value.copy()
           for p in agent.estimator.network.parameters()], out)
    out["log_std"] = agent.model.dist.log_std.value.copy()
    out["scalars"] = np.array([agent.lagrangian.value,
                               *agent.estimator.target_scale])
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **out)


def load_agent(agent: OnSlicingAgent, path: str) -> None:
    """Restore a snapshot produced by :func:`save_agent` in place.

    The agent must have been constructed with the same architecture
    configuration; shapes are validated by the underlying setters.
    """
    with np.load(path) as data:
        agent.model.actor.set_weights(_unpack("actor", data))
        agent.model.critic.set_weights(_unpack("critic", data))
        agent.modifier.network.set_weights(_unpack("modifier", data))
        agent.modifier.surrogate.network.set_weights(
            _unpack("surrogate", data))
        estimator_params = agent.estimator.network.parameters()
        estimator_arrays = _unpack("estimator", data)
        if len(estimator_params) != len(estimator_arrays):
            raise ValueError("estimator architecture mismatch")
        for param, arr in zip(estimator_params, estimator_arrays):
            if param.value.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {param.name}: "
                    f"{arr.shape} vs {param.value.shape}")
            param.value = arr.copy()
        agent.model.dist.log_std.value = data["log_std"].copy()
        scalars = data["scalars"]
        agent.lagrangian.value = float(scalars[0])
        agent.estimator.target_scale = scalars[1:3]
