"""Operating the four domain managers through their REST-style API.

Walks through the paper's Sec. 6 control surface: take an end-to-end
slice under management across RDM / TDM / CDM / EDM, configure
per-domain resources (including the RDM's custom CQI-MCS offset
tables), attach a subscriber by IMSI, and ask what the configuration
delivers -- the same interactions the OnSlicing agents drive
programmatically.  The managers configure and enforce isolation; the
numbers come from the one model of the testbed, the engine kernels,
through ``DomainManagerSet.evaluate_slot``.

Run:  python examples/domain_managers_api.py
"""

import numpy as np

from repro.config import NetworkConfig, rdc_slice_spec
from repro.core.orchestrator import DomainManagerSet
from repro.domains import (
    CoreDomainManager,
    EdgeDomainManager,
    RadioDomainManager,
    Request,
    TransportDomainManager,
)
from repro.sim.network import EndToEndNetwork


def show(label: str, response) -> None:
    print(f"  {label}: HTTP {response.status} {response.body}")


def main() -> None:
    # The simulated testbed admits the slice's UEs together with its
    # SPGW-U pool and edge server; the CDM and EDM adopt those.
    network = EndToEndNetwork(NetworkConfig(),
                              slices=[rdc_slice_spec("urllc")],
                              rng=np.random.default_rng(1))
    managers = DomainManagerSet(
        rdm=RadioDomainManager(),
        tdm=TransportDomainManager(network.fabric),
        cdm=CoreDomainManager(network.core),
        edm=EdgeDomainManager(network.edge))
    rdm, tdm, cdm, edm = managers

    print("== Create the slice in every domain ==")
    show("RDM", rdm.handle(Request("POST", "/slices/urllc")))
    show("TDM", tdm.handle(Request("POST", "/slices/urllc")))
    show("CDM", cdm.handle(Request("POST", "/slices/urllc")))
    show("EDM", edm.handle(Request("POST", "/slices/urllc")))

    print("\n== Configure resources (subsecond reconfiguration) ==")
    show("RDM", rdm.handle(Request(
        "PUT", "/slices/urllc/resources",
        body={"uplink_share": 0.2, "downlink_share": 0.15,
              "uplink_mcs_offset": 6, "downlink_mcs_offset": 4})))
    show("TDM", tdm.handle(Request(
        "PUT", "/slices/urllc/meter",
        body={"meter_share": 0.05, "path_index": 0})))
    show("CDM", cdm.handle(Request(
        "PUT", "/slices/urllc/resources",
        body={"cpu_share": 0.2, "ram_gb": 2.0})))
    show("EDM", edm.handle(Request(
        "PUT", "/slices/urllc/resources",
        body={"cpu_share": 0.2, "ram_share": 0.1})))

    print("\n== Attach a subscriber (IMSI -> slice -> SPGW-U pool) ==")
    cdm.core.hss.provision("001019000000001", "urllc")
    show("CDM", cdm.handle(Request(
        "POST", "/subscribers/001019000000001/attach")))

    print("\n== Measurements (the configuration, through the kernels) ==")
    report = managers.evaluate_slot(network, {"urllc": 50.0})["urllc"]
    print(f"  RAN capacity: {report.ul_capacity_bps / 1e6:.2f} Mbps up, "
          f"{report.dl_capacity_bps / 1e6:.2f} Mbps down")
    print(f"  TN {report.transport_latency_ms:.2f} ms, "
          f"CN {report.core_latency_ms:.2f} ms, "
          f"EN {report.edge_latency_ms:.2f} ms "
          f"at {report.arrival_rate:.0f} messages/s")
    print(f"  {report.performance.metric}: "
          f"{report.performance.value:.6f} (cost {report.cost:.2e})")

    print("\n== Capacity is enforced (409 on over-commit) ==")
    rdm.handle(Request("POST", "/slices/embb"))
    show("RDM", rdm.handle(Request(
        "PUT", "/slices/embb/resources",
        body={"uplink_share": 0.9, "downlink_share": 0.9})))


if __name__ == "__main__":
    main()
