"""Slot-arena allocator: reusable temporaries for the engine kernels.

Profiling the vector engine (``repro obs profile`` with ``alloc``)
showed steady-state slot evaluation spending a large share of its
time in numpy array construction: every ``evaluate_rows`` call built
~40 fresh temporaries (decode masks, per-direction radio buffers,
queueing intermediates, app-model scratch), none of which outlive the
call.  :class:`KernelArena` removes that cost: it owns one reusable
buffer per (shape, dtype, request-index) triple and hands the same
arrays back on every call, so a warmed arena serves a slot evaluation
with **zero heap array allocations** (pinned by
``tests/test_engine_alloc.py``).

Lifecycle
---------
An arena is keyed by the caller's *row layout* (however the caller
identifies it -- the batch engine uses the identity of its concatenated
:class:`~repro.engine.kernels.SliceRows` bundle, the scalar network
uses its cached rows object).  Each kernel pass starts with
:meth:`begin`:

* same key as the previous pass -> every buffer cursor rewinds and the
  pass reuses the warmed buffers (the steady state);
* new key (slice churn rebuilt the rows, a reset swapped worlds, the
  first call ever) -> the pools are dropped and the next pass
  re-populates them, allocating once.

Within one pass, :meth:`take` hands out buffers in request order.  The
kernels are straight-line array code -- the sequence of ``take`` calls
is identical on every pass over the same layout -- so request index
``i`` of shape ``s`` always receives the same array.  Buffers are
*never* zeroed between passes: kernels fully overwrite every element
they read (the same discipline ``np.empty`` requires), which the
parity suite enforces by comparing against the scalar engine
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


class KernelArena:
    """Layout-keyed pool of reusable kernel temporaries."""

    def __init__(self) -> None:
        self._key: object = None
        # (shape, dtype) -> list of preallocated buffers
        self._pools: Dict[Tuple[tuple, type], List[np.ndarray]] = {}
        # (shape, dtype) -> next handout index within the current pass
        self._cursors: Dict[Tuple[tuple, type], int] = {}
        # name -> derived static value (row-constant arrays etc.)
        self._statics: Dict[object, object] = {}
        #: Number of times the pools were dropped (layout changes).
        self.rebuilds = 0
        #: Buffers handed out since the last rebuild.
        self.served = 0

    # ---- pass lifecycle ----------------------------------------------

    def begin(self, key: object) -> None:
        """Open one kernel pass over the layout identified by ``key``.

        Rewinds every buffer cursor; a key change drops the pools so
        stale-shaped buffers can never leak across layouts.
        """
        if key != self._key:
            self._pools = {}
            self._statics = {}
            self._key = key
            self.rebuilds += 1
            self.served = 0
        cursors = self._cursors
        if cursors:
            for pool_key in cursors:
                cursors[pool_key] = 0

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """Hand out the next reusable buffer of ``shape``/``dtype``.

        Contents are undefined (``np.empty`` semantics): the caller
        must overwrite every element it reads.
        """
        if isinstance(shape, int):
            shape = (shape,)
        else:
            shape = tuple(shape)
        pool_key = (shape, dtype)
        pool = self._pools.get(pool_key)
        if pool is None:
            pool = self._pools[pool_key] = []
            self._cursors[pool_key] = 0
        index = self._cursors.get(pool_key, 0)
        self._cursors[pool_key] = index + 1
        if index == len(pool):
            pool.append(np.empty(shape, dtype=pool_key[1]))
        self.served += 1
        return pool[index]

    def static(self, name: object, builder):
        """Derived row-constant, built once per layout.

        Kernels use this for values that depend only on the static
        :class:`~repro.engine.kernels.SliceRows` (float casts of
        integer columns, per-row masks, ``1 - overhead``): ``builder``
        runs on the first pass after a layout change and the result is
        reused verbatim until the next :meth:`begin` key change.
        Callers must treat the value as read-only.
        """
        value = self._statics.get(name)
        if value is None:
            value = self._statics[name] = builder()
        return value


__all__ = ["KernelArena"]
