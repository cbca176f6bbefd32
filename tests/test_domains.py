"""Unit tests: domain managers, REST interface, parameter coordinator."""

import numpy as np
import pytest

from repro.config import NUM_ACTIONS, TransportConfig, mar_slice_spec
from repro.core.orchestrator import DomainManagerSet
from repro.domains import (
    CoreDomainManager,
    EdgeDomainManager,
    RadioDomainManager,
    Request,
    ResourceConstraintError,
    TransportDomainManager,
)
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.core_network import CoreNetwork
from repro.sim.edge import EdgeServerPool
from repro.sim.network import CONSTRAINED_RESOURCES
from repro.sim.ran import Scheduler
from repro.sim.transport import TransportFabric


@pytest.fixture
def rdm():
    manager = RadioDomainManager()
    manager.create_slice("MAR")
    manager.create_slice("HVS")
    return manager


@pytest.fixture
def tdm():
    manager = TransportDomainManager(TransportFabric())
    manager.create_slice("MAR")
    manager.create_slice("HVS")
    return manager


@pytest.fixture
def edm():
    manager = EdgeDomainManager(EdgeServerPool())
    manager.create_slice("MAR")
    manager.create_slice("HVS")
    return manager


@pytest.fixture
def testbed(simulator):
    """A three-slice network with its four managers (the way the
    orchestrator and the e2e benchmark build them)."""
    return simulator.network, DomainManagerSet.for_simulator(simulator)


class TestRDM:
    def test_configure_and_read(self, rdm):
        rdm.configure_slice("MAR", uplink_share=0.4,
                            downlink_share=0.3, uplink_mcs_offset=2)
        assert rdm.requested_share("MAR", "uplink_prb") == 0.4
        assert rdm.requested_share("MAR", "downlink_prb") == 0.3

    def test_isolation_enforced(self, rdm):
        rdm.configure_slice("MAR", uplink_share=0.7,
                            downlink_share=0.5)
        with pytest.raises(ResourceConstraintError):
            rdm.configure_slice("HVS", uplink_share=0.4,
                                downlink_share=0.1)

    def test_invalid_offset(self, rdm):
        with pytest.raises(ValueError):
            rdm.configure_slice("MAR", 0.1, 0.1, uplink_mcs_offset=11)

    def test_unknown_slice(self, rdm):
        with pytest.raises(KeyError):
            rdm.configure_slice("XX", 0.1, 0.1)

    def test_unknown_resource_kind(self, rdm):
        with pytest.raises(KeyError):
            rdm.requested_share("MAR", "cpu")

    def test_rest_roundtrip(self, rdm):
        response = rdm.handle(Request(
            "PUT", "/slices/MAR/resources",
            body={"uplink_share": 0.25, "downlink_share": 0.2,
                  "uplink_mcs_offset": 3}))
        assert response.ok
        response = rdm.handle(Request("GET", "/slices/MAR"))
        assert response.body["uplink_share"] == 0.25
        assert response.body["uplink_mcs_offset"] == 3

    def test_rest_404(self, rdm):
        response = rdm.handle(Request("GET", "/nonsense"))
        assert response.status == 404

    def test_rest_409_on_overcommit(self, rdm):
        rdm.handle(Request("PUT", "/slices/MAR/resources",
                           body={"uplink_share": 0.9,
                                 "downlink_share": 0.1}))
        response = rdm.handle(Request(
            "PUT", "/slices/HVS/resources",
            body={"uplink_share": 0.3, "downlink_share": 0.1}))
        assert response.status == 409

    def test_rest_create_delete(self, rdm):
        assert rdm.handle(Request("POST", "/slices/RDC")).ok
        assert rdm.handle(Request("DELETE", "/slices/RDC")).ok
        assert rdm.handle(
            Request("GET", "/slices/RDC")).status == 400


class TestTDM:
    def test_meter_capacity_enforced(self, tdm):
        tdm.configure_slice("MAR", meter_share=0.8)
        with pytest.raises(ResourceConstraintError):
            tdm.configure_slice("HVS", meter_share=0.3)

    def test_invalid_path(self, tdm):
        with pytest.raises(ValueError):
            tdm.configure_slice("MAR", meter_share=0.1, path_index=9)

    def test_carry_uses_configuration(self, testbed):
        """What a slice's traffic meets in the transport network is
        the TDM's configured meter and path: 3 hops on path 1, plus
        M/M/1 on the path's only reservation."""
        network, managers = testbed
        managers.tdm.configure_slice("MAR", meter_share=0.25,
                                     path_index=1)
        report = managers.evaluate_slot(network, {"MAR": 1.0})["MAR"]
        hop_ms = TransportConfig().hop_latency_ms
        assert network.fabric.path_hops(1) == 3
        assert report.transport_latency_ms == pytest.approx(
            (3 + 0.25 / (1 - 0.25)) * hop_ms)

    def test_rest_configure(self, tdm):
        response = tdm.handle(Request(
            "PUT", "/slices/MAR/meter",
            body={"meter_share": 0.2, "path_index": 2}))
        assert response.ok
        got = tdm.handle(Request("GET", "/slices/MAR"))
        assert got.body == {"meter_share": 0.2, "path_index": 2}


class TestCDM:
    def test_attach_via_rest(self):
        core = CoreNetwork()
        cdm = CoreDomainManager(core)
        cdm.create_slice("MAR")
        core.hss.provision("imsi1", "MAR")
        response = cdm.handle(Request("POST",
                                      "/subscribers/imsi1/attach"))
        assert response.ok
        assert response.body["slice"] == "MAR"
        sessions = cdm.handle(Request("GET", "/slices/MAR/sessions"))
        assert sessions.body["sessions"] == ["imsi1"]

    def test_owns_no_constrained_resources(self):
        cdm = CoreDomainManager(CoreNetwork())
        assert cdm.resource_kinds == ()
        with pytest.raises(KeyError):
            cdm.requested_share("MAR", "cpu")

    def test_creates_or_adopts_the_pool(self):
        """A fresh slice gets a pool; a slice the testbed already runs
        keeps its own; either way the CDM registers it exactly once."""
        core = CoreNetwork()
        running = core.create_slice_pool("MAR")
        cdm = CoreDomainManager(core)
        assert cdm.create_slice("MAR") == running
        assert cdm.create_slice("HVS") == list(core.pool("HVS"))
        with pytest.raises(ValueError):
            cdm.create_slice("MAR")
        with pytest.raises(KeyError):
            cdm.configure_slice("RDC", cpu_share=0.1)


class TestEDM:
    def test_cpu_capacity_enforced(self, edm):
        edm.configure_slice("MAR", cpu_share=0.8, ram_share=0.5)
        with pytest.raises(ResourceConstraintError):
            edm.configure_slice("HVS", cpu_share=0.3, ram_share=0.1)

    def test_ram_capacity_enforced(self, edm):
        edm.configure_slice("MAR", cpu_share=0.2, ram_share=0.9)
        with pytest.raises(ResourceConstraintError):
            edm.configure_slice("HVS", cpu_share=0.2, ram_share=0.2)

    def test_requested_share(self, edm):
        edm.configure_slice("MAR", cpu_share=0.4, ram_share=0.3)
        assert edm.requested_share("MAR", "cpu") == 0.4
        assert edm.requested_share("MAR", "ram") == 0.3

    def test_evaluate_through_manager(self, testbed):
        """The EDM's shares are the workstation's: more CPU for the
        slice is a faster edge (and core) in the what-if."""
        network, managers = testbed
        latency = {}
        for cpu in (0.1, 0.5):
            managers.edm.configure_slice("MAR", cpu_share=cpu,
                                         ram_share=0.5)
            report = managers.evaluate_slot(network, {"MAR": 2.0})["MAR"]
            latency[cpu] = report.edge_latency_ms
            assert np.isfinite(report.edge_latency_ms)
        assert latency[0.5] < latency[0.1]

    def test_duplicate_rejected(self, edm):
        with pytest.raises(ValueError):
            edm.create_slice("MAR")


class TestDomainManagerSet:
    """The four managers over one simulated network."""

    def test_every_slice_is_managed_in_every_domain(self, testbed):
        """``for_simulator`` registers the simulator's slices with all
        four managers -- adopting the pools and servers the network
        already built -- so each can configure and account them."""
        network, managers = testbed
        names = network.slice_names
        containers = len(network.core.runtime)
        for i, name in enumerate(names):
            share = 0.1 * (i + 1)
            managers.rdm.configure_slice(name, uplink_share=share,
                                         downlink_share=share / 2)
            managers.tdm.configure_slice(name, meter_share=share)
            managers.cdm.configure_slice(name, cpu_share=share)
            managers.edm.configure_slice(name, cpu_share=share,
                                         ram_share=share / 4)
        assert len(network.core.runtime) == containers
        owners = {"uplink_prb": (managers.rdm, 1.0),
                  "downlink_prb": (managers.rdm, 0.5),
                  "transport_bandwidth": (managers.tdm, 1.0),
                  "cpu": (managers.edm, 1.0),
                  "ram": (managers.edm, 0.25)}
        assert set(owners) == set(CONSTRAINED_RESOURCES)
        for kind, (manager, scale) in owners.items():
            for i, name in enumerate(names):
                assert manager.requested_share(name, kind) == \
                    pytest.approx(0.1 * (i + 1) * scale)
            assert manager.total_requested(kind, names) == \
                pytest.approx(0.6 * scale)

    def test_cpu_overcommit_is_a_409(self, testbed):
        _, managers = testbed
        for name in ("MAR", "HVS"):
            managers.edm.configure_slice(name, cpu_share=0.45,
                                         ram_share=0.1)
        with pytest.raises(ResourceConstraintError):
            managers.edm.configure_slice("RDC", cpu_share=0.2,
                                         ram_share=0.1)
        response = managers.edm.handle(Request(
            "PUT", "/slices/RDC/resources",
            body={"cpu_share": 0.2, "ram_share": 0.1}))
        assert response.status == 409
        assert managers.edm.total_requested(
            "cpu", ["MAR", "HVS", "RDC"]) == pytest.approx(0.9)

    def test_coordinators_cover_the_constrained_kinds(self, testbed):
        _, managers = testbed
        assert sum((c.resource_kinds for c in managers.coordinators),
                   ()) == tuple(CONSTRAINED_RESOURCES)

    def test_what_if_is_the_inverse_of_the_decode_stage(self, testbed):
        """The one measurement path: the managers' configuration,
        composed into the 10-dim action, evaluates exactly like the
        hand-written action that decodes to it."""
        network, managers = testbed
        actions = {}
        for i, name in enumerate(network.slice_names):
            scheduler = list(Scheduler)[i]
            managers.rdm.configure_slice(
                name, uplink_share=0.2, downlink_share=0.3,
                uplink_mcs_offset=3 * i, downlink_mcs_offset=i,
                uplink_scheduler=scheduler, downlink_scheduler=scheduler)
            managers.tdm.configure_slice(name, meter_share=0.1 + 0.1 * i,
                                         path_index=i)
            managers.edm.configure_slice(name, cpu_share=0.3,
                                         ram_share=0.25)
            actions[name] = np.array(
                [0.2, 0.3 * i, i / 3 + 0.1, 0.3, 0.1 * i, i / 3 + 0.2,
                 0.1 + 0.1 * i, i / 3 + 0.3, 0.3, 0.25])
            assert managers.slot_action(name).shape == (NUM_ACTIONS,)
        rates = {name: 1.0 for name in actions}
        got = managers.evaluate_slot(network, rates)
        expected = network.evaluate_slot(actions, rates)
        for name in actions:
            for field in ("performance", "ul_capacity_bps",
                          "dl_capacity_bps", "transport_latency_ms",
                          "core_latency_ms", "edge_latency_ms",
                          "radio_usage", "workload"):
                assert getattr(got[name], field) == \
                    getattr(expected[name], field), (name, field)

    def test_unmanaged_slice_is_a_key_error(self, testbed):
        network, managers = testbed
        network.add_slice(mar_slice_spec("background"))
        with pytest.raises(KeyError, match="background"):
            managers.evaluate_slot(network, {})


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
