"""Mid-episode network events (fault / churn injection).

An event is a frozen dataclass positioned on the episode timeline by
*fractions* of the horizon, so the same scenario stresses a 96-slot
day and a 12-slot test episode at the same relative moment.  Each
class carries a ``kind`` tag; :class:`~repro.sim.env.ScenarioSimulator`
dispatches on the tag (the sim layer never imports this module, which
keeps the dependency graph acyclic) and executes the effect through
the event hooks on :class:`~repro.sim.network.EndToEndNetwork`
(``set_transport_conditions``, ``add_slice`` / ``remove_slice``, which
flip the arriving slice's spare row, laid out when the simulator was
built).

Timeline semantics: an event *activates* at the step whose index equals
``start_slot(horizon)`` and *deactivates* at ``end_slot(horizon)``;
effects of simultaneously active events compose (capacity factors
multiply, latency surges add, background loads add).  Slice churn
events manage *background* slices: an arriving slice is driven by the
simulator with a fixed allocation and contends for every resource, but
is never reported to the learning agents -- so all four methods run
unmodified while the world shifts under them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.config import SLICE_SPEC_BUILDERS


def slot_window(at_fraction: float, duration_fraction: float,
                horizon: int) -> Tuple[int, int]:
    """``(start, stop)`` slots of a fraction-positioned window.

    The one place fraction-to-slot rounding lives: the start is clamped
    inside the episode and the window spans at least one slot, for
    events and windowed traffic models alike.
    """
    start = min(int(round(at_fraction * horizon)), horizon - 1)
    stop = start + max(int(round(duration_fraction * horizon)), 1)
    return start, stop


@dataclass(frozen=True)
class NetworkEvent:
    """Base timeline entry: where on the episode it starts and ends."""

    kind: ClassVar[str] = "abstract"

    at_fraction: float = 0.5
    duration_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ValueError("at_fraction must be in [0, 1]")
        if not (math.isfinite(self.duration_fraction)
                and self.duration_fraction >= 0.0):
            raise ValueError("duration_fraction must be finite and >= 0")

    def start_slot(self, horizon: int) -> int:
        """First slot (inclusive) at which the event is active."""
        return slot_window(self.at_fraction, self.duration_fraction,
                           horizon)[0]

    def end_slot(self, horizon: int) -> int:
        """First slot at which the event is no longer active."""
        return slot_window(self.at_fraction, self.duration_fraction,
                           horizon)[1]


@dataclass(frozen=True)
class LinkDegradation(NetworkEvent):
    """Transport link capacity drops to ``capacity_scale`` of nominal."""

    kind: ClassVar[str] = "link_degradation"

    capacity_scale: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in (0, 1]")


@dataclass(frozen=True)
class LatencySurge(NetworkEvent):
    """Extra forwarding latency on every transport path, in ms."""

    kind: ClassVar[str] = "latency_surge"

    extra_latency_ms: float = 25.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.extra_latency_ms)
                and self.extra_latency_ms >= 0):
            raise ValueError("extra_latency_ms must be finite and >= 0")


@dataclass(frozen=True)
class BackgroundLoadStep(NetworkEvent):
    """Unmanaged cross-traffic loading every path by a capacity share."""

    kind: ClassVar[str] = "background_load"

    load_fraction: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.load_fraction < 1.0:
            raise ValueError("load_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SliceArrival(NetworkEvent):
    """A background slice attaches mid-episode and departs when the
    event's duration elapses (slice churn).

    The simulator adds it to the network as an ``app`` slice (one of
    the paper's templates) with ``arrival_scale`` times its peak
    arrival rate, drives it with a constant ``action_level``
    allocation and a flat traffic envelope, and removes it again at
    ``end_slot``.
    """

    kind: ClassVar[str] = "slice_arrival"

    app: str = "mar"
    slice_name: str = "churn"
    arrival_scale: float = 0.5
    action_level: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        apps = tuple(SLICE_SPEC_BUILDERS)
        if self.app not in apps:
            raise ValueError(f"app must be one of {apps}, got "
                             f"{self.app!r}")
        if not self.slice_name:
            raise ValueError("slice_name must be non-empty")
        if not (math.isfinite(self.arrival_scale)
                and self.arrival_scale > 0.0):
            raise ValueError("arrival_scale must be finite and > 0")
        if not 0.0 < self.action_level <= 1.0:
            raise ValueError("action_level must be in (0, 1]")


EVENT_TYPES = (LinkDegradation, LatencySurge, BackgroundLoadStep,
               SliceArrival)
