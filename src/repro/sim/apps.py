"""Slice application models: MAR, HVS, RDC (paper Sec. 7.1).

Each application converts the end-to-end pipeline state (RAN capacity,
transport rate/latency, core processing, edge compute) into the scalar
performance metric its SLA is written against (the apps stage of
:mod:`repro.engine.kernels`; this module holds the outcome record):

* **MAR** -- mobile augmented reality: 540p frames uplink, ORB feature
  extraction at the edge, matched objects downlink.  Metric: average
  round-trip frame latency (ms); requirement 500 ms.
* **HVS** -- HD video streaming: 1080p stream downlink.  Metric:
  delivered FPS; requirement 30.
* **RDC** -- reliable distant control: 1 kbit sensor uplink + 1 kbit
  control downlink.  Metric: radio transmission reliability;
  requirement 99.999 %.

The ``cost`` follows paper Eq. 10: ``c = 1 - clip(p/P, 0, 1)`` where the
satisfaction ratio ``p/P`` is ``measured/target`` for higher-is-better
metrics and ``target/measured`` for latency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AppPerformance:
    """Scalar outcome of one slot for one slice."""

    metric: str
    value: float                   # measured performance (ms, fps, prob)
    satisfaction: float            # clip(p/P, 0, 1)
    cost: float                    # 1 - satisfaction (paper Eq. 10)
