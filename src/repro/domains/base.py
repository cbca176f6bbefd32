"""Domain-manager base: REST-style interface + resource accounting.

The paper: "We create a unified interface based on the REST API to
facilitate the interactions between OnSlicing agents and domain
managers" (Sec. 6).  :class:`Request`/:class:`Response` model that
interface without an HTTP server (the agents are in-process); managers
register route handlers exactly like a small REST framework, so the
orchestration code reads like real controller traffic.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class ResourceConstraintError(RuntimeError):
    """Raised when a configuration would exceed infrastructure capacity."""


@dataclass(frozen=True)
class Request:
    """A REST-style request toward a domain manager."""

    method: str                 # "GET" | "POST" | "PUT" | "DELETE"
    path: str                   # e.g. "/slices/MAR/resources"
    body: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """Result of dispatching a :class:`Request`."""

    status: int
    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[Dict[str, str], Dict[str, Any]], Dict[str, Any]]


class DomainManager(abc.ABC):
    """Base class with route registration and dispatch.

    Subclasses call :meth:`route` in ``__init__`` and implement the
    domain logic in plain methods; :meth:`handle` dispatches REST
    requests onto them.  Each manager also declares which constrained
    resource kinds it owns (:attr:`resource_kinds`) so parameter
    coordination knows where each ``beta_k`` lives.
    """

    #: Resource kinds (keys of sim.network.CONSTRAINED_RESOURCES) this
    #: domain is responsible for.
    resource_kinds: Tuple[str, ...] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self._routes: List[Tuple[str, re.Pattern, Handler]] = []

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler; ``{param}`` segments capture path params."""
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$")
        self._routes.append((method.upper(), regex, handler))

    def handle(self, request: Request) -> Response:
        """Dispatch a request to the first matching route."""
        for method, regex, handler in self._routes:
            if method != request.method.upper():
                continue
            match = regex.match(request.path)
            if match is None:
                continue
            try:
                body = handler(match.groupdict(), dict(request.body))
            except (KeyError, ValueError) as exc:
                return Response(status=400, body={"error": str(exc)})
            except ResourceConstraintError as exc:
                return Response(status=409, body={"error": str(exc)})
            return Response(status=200, body=body)
        return Response(status=404,
                        body={"error": f"no route for {request.method} "
                                       f"{request.path}"})

    @abc.abstractmethod
    def requested_share(self, slice_name: str, kind: str) -> float:
        """Currently-configured share of a constrained resource kind."""

    def total_requested(self, kind: str,
                        slice_names: List[str]) -> float:
        return sum(self.requested_share(name, kind)
                   for name in slice_names)

    def action_terms(self, slice_name: str) -> Dict[str, float]:
        """The dimensions of the 10-dim slot action (keyed by
        :data:`repro.config.ACTION_NAMES`) that this domain's
        configuration of ``slice_name`` determines -- the inverse of
        the kernels' decode stage, with discrete choices encoded
        mid-bin.  None by default."""
        return {}
