"""Construction-time guards of :class:`~repro.engine.batch.BatchSimulator`.

The engine a batch runs on is chosen when the batch is built; any name
but ``"vector"`` is refused there, not on the first step.
"""

import numpy as np
import pytest

from repro import scenarios
from repro.engine import BatchSimulator


def _build_sim(name, seed=None):
    spec = scenarios.get(name)
    cfg = spec.build_config(seed=seed)
    return spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))


class TestArenaReturnOwnership:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            BatchSimulator([_build_sim("default")], engine="turbo")
