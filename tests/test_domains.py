"""Unit tests: Eq. 14's parameter coordinators."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.rule_based import RuleBasedPolicy
from repro.config import NUM_ACTIONS
from repro.core.agent import OnSlicingAgent
from repro.core.orchestrator import DomainManagerSet, OnSlicingOrchestrator
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.network import CONSTRAINED_RESOURCES


class TestDomainManagerSet:
    """The coordinators the orchestrator and the e2e benchmark build."""

    def test_coordinators_cover_the_constrained_kinds(self, simulator,
                                                      short_config):
        for step in (0.5, 0.25):
            managers = DomainManagerSet.for_simulator(
                simulator, coordinator_step=step)
            assert sum((c.resource_kinds for c in managers.coordinators),
                       ()) == tuple(CONSTRAINED_RESOURCES)
            assert [c.step_size for c in managers.coordinators] == \
                [step] * 3
        cfg = short_config.replace(agent=dataclasses.replace(
            short_config.agent, modifier=dataclasses.replace(
                short_config.agent.modifier, coordinator_step_size=0.25)))
        agents = {
            spec.name: OnSlicingAgent(
                spec.name, RuleBasedPolicy(spec.name, spec.app, [1.0],
                                           [np.full(NUM_ACTIONS, 0.3)]),
                simulator.horizon, spec.sla.cost_threshold,
                cfg=cfg.agent)
            for spec in cfg.slices}
        orchestrator = OnSlicingOrchestrator(simulator, agents, cfg=cfg)
        assert [c.step_size for c in orchestrator.managers.coordinators] \
            == [0.25] * 3


class TestParameterCoordinator:
    def test_beta_grows_on_over_request(self):
        coord = ParameterCoordinator(["cpu"], step_size=0.5)
        coord.begin_slot()
        beta = coord.update({"cpu": 1.4})
        assert beta["cpu"] == pytest.approx(0.2)

    def test_beta_decays_when_satisfied(self):
        coord = ParameterCoordinator(["cpu"], step_size=0.5)
        coord.begin_slot()
        coord.update({"cpu": 1.4})
        beta = coord.update({"cpu": 0.8})
        assert beta["cpu"] == pytest.approx(0.1)

    def test_beta_never_negative(self):
        coord = ParameterCoordinator(["cpu"], step_size=0.5)
        coord.begin_slot()
        beta = coord.update({"cpu": 0.0})
        assert beta["cpu"] == 0.0

    def test_warm_start_carries_over_slots(self):
        coord = ParameterCoordinator(["cpu"], step_size=0.5,
                                     warm_start=True)
        coord.begin_slot()
        coord.update({"cpu": 1.4})
        carried = coord.begin_slot()
        assert carried["cpu"] == pytest.approx(0.2)

    def test_cold_start_resets(self):
        coord = ParameterCoordinator(["cpu"], step_size=0.5,
                                     warm_start=False)
        coord.begin_slot()
        coord.update({"cpu": 1.4})
        fresh = coord.begin_slot()
        assert fresh["cpu"] == 0.0

    def test_satisfied_check(self):
        coord = ParameterCoordinator(["cpu", "ram"])
        assert coord.satisfied({"cpu": 0.9, "ram": 1.0})
        assert not coord.satisfied({"cpu": 1.1, "ram": 0.5})

    def test_requires_resources(self):
        with pytest.raises(ValueError):
            ParameterCoordinator([])
        with pytest.raises(ValueError):
            ParameterCoordinator(["cpu"], step_size=0.0)
