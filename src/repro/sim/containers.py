"""Docker-like container runtime for VNFs and edge servers.

The paper virtualises the CN VNFs and edge servers with Docker and
drives them through ``docker update`` (CPU/RAM) -- see Sec. 6 (CDM and
EDM).  :class:`ContainerRuntime` reproduces that control surface: named
containers with CPU-share and RAM limits, hot updates, and aggregate
accounting against the host capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class Container:
    """One running container with its resource limits."""

    name: str
    image: str
    cpu_share: float       # fraction of total host CPU in [0, 1]
    ram_gb: float
    labels: Dict[str, str] = field(default_factory=dict)
    running: bool = True


class ContainerRuntime:
    """Host-level container manager with capacity accounting."""

    def __init__(self, total_cpu_cores: float, total_ram_gb: float
                 ) -> None:
        if total_cpu_cores <= 0 or total_ram_gb <= 0:
            raise ValueError("host capacities must be positive")
        self.total_cpu_cores = total_cpu_cores
        self.total_ram_gb = total_ram_gb
        self._containers: Dict[str, Container] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._containers

    def __iter__(self) -> Iterator[Container]:
        return iter(self._containers.values())

    def __len__(self) -> int:
        return len(self._containers)

    def run(self, name: str, image: str, cpu_share: float = 0.0,
            ram_gb: float = 0.0,
            labels: Optional[Dict[str, str]] = None) -> Container:
        """``docker run`` -- instantiate a named container."""
        if name in self._containers:
            raise ValueError(f"container {name!r} already exists")
        container = Container(name=name, image=image,
                              cpu_share=float(cpu_share),
                              ram_gb=float(ram_gb),
                              labels=dict(labels or {}))
        self._containers[name] = container
        return container

    def update(self, name: str, cpu_share: Optional[float] = None,
               ram_gb: Optional[float] = None) -> Container:
        """``docker update`` -- adjust resources of a running container."""
        container = self.get(name)
        if cpu_share is not None:
            if cpu_share < 0:
                raise ValueError("cpu_share must be non-negative")
            container.cpu_share = float(cpu_share)
        if ram_gb is not None:
            if ram_gb < 0:
                raise ValueError("ram_gb must be non-negative")
            container.ram_gb = float(ram_gb)
        return container

    def stop(self, name: str) -> None:
        self.get(name).running = False

    def remove(self, name: str) -> None:
        if name not in self._containers:
            raise KeyError(f"no container {name!r}")
        del self._containers[name]

    def get(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError as exc:
            raise KeyError(f"no container {name!r}") from exc

    @property
    def allocated_cpu_share(self) -> float:
        return sum(c.cpu_share for c in self._containers.values()
                   if c.running)

    @property
    def allocated_ram_gb(self) -> float:
        return sum(c.ram_gb for c in self._containers.values()
                   if c.running)

    def cpu_overcommitted(self) -> bool:
        return self.allocated_cpu_share > 1.0 + 1e-9

    def ram_overcommitted(self) -> bool:
        return self.allocated_ram_gb > self.total_ram_gb + 1e-9
