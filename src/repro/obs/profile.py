"""A read-only per-kernel view of the tracer's ``engine.kernel.<stage>``
laps (:func:`repro.engine.kernels.evaluate_rows`)."""

from __future__ import annotations

from typing import Dict, List

from repro.obs.trace import Tracer, installed

_STAGE_PREFIX = "engine.kernel."


class KernelProfiler:
    """An in-memory :class:`Tracer`, installed while the block runs
    (the tracer installed before it is put back after).

    Kept only for the interface ``benchmarks/e2e`` reads (``with
    profiler:`` and ``report()`` rows' ``kernel`` / ``est_total_ms``);
    it goes with ROADMAP 1(j), as ``LoadGenerator``'s incremental API
    does.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()

    def __enter__(self) -> "KernelProfiler":
        self._block = installed(self.tracer)
        self._block.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._block.__exit__(*exc)
        return False

    def report(self) -> List[Dict[str, object]]:
        """One row per kernel stage lapped in the block: ``kernel`` and
        ``est_total_ms`` (exact: every call laps), summed over every
        span path the stage's rows landed under."""
        totals: Dict[str, float] = {}
        for (path, _attrs), entry in self.tracer.rollup().items():
            name = path.rsplit("/", 1)[-1]
            if name.startswith(_STAGE_PREFIX):
                stage = name[len(_STAGE_PREFIX):]
                totals[stage] = totals.get(stage, 0.0) + entry["total_ms"]
        return [{"kernel": stage, "est_total_ms": total_ms}
                for stage, total_ms in totals.items()]
