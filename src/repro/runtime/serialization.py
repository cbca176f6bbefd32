"""JSON-safe encoding of experiment results.

The result cache stores everything as JSON on disk (no pickle, no code
execution on load -- the policy store's rule too).  Result objects
are richer than plain JSON, so values are encoded with a small tagged
scheme: ``{"__repro__": "<tag>", ...}`` wrappers mark
numpy arrays, :class:`~repro.experiments.metrics.MethodResult`,
:class:`~repro.experiments.metrics.TrajectoryPoint` and
:class:`~repro.baselines.rule_based.RuleBasedPolicy` instances, and
:func:`from_jsonable` reconstructs them exactly, so a cache hit served
from disk is indistinguishable from a freshly computed result.

Arrays have one record, written by :func:`encode_array` and read by
:func:`decode_array`: ``{"__repro__": "ndarray", "dtype": "<f8",
"shape": [...], "b64": ...}``, the base64 of the array's little-endian
C-order bytes.  It is bit-exact (``-0.0``, NaN payloads and subnormals
included), about half the size of a float-repr list, and cheap to hash
-- policy snapshots hold ~10^5 weights and their content digest is the
SHA-256 of this canonical JSON.  Only boolean and numeric dtypes
encode.  Decoding is strict: a missing key, an unknown, object or
big-endian dtype, a bad shape, non-base64 text or a byte count that
does not match the shape raises :class:`ValueError` saying which, so
a corrupt cache entry reads as a miss and a corrupt snapshot names
itself.

Frozen declarative dataclasses -- the config family, scenario specs,
traffic models, and network events -- round-trip through a generic
``{"__repro__": "dataclass", "type": ..., "fields": ...}`` wrapper.
Only types in the explicit :data:`DATACLASS_TYPES` allowlist decode
(construction calls the class's validating ``__init__``, never
``__setstate__``-style machinery), preserving the no-pickle contract.
"""

from __future__ import annotations

import base64
import dataclasses
import math
from typing import Any, Dict

import numpy as np

from repro.baselines.rule_based import RuleBasedPolicy
from repro.config import (
    AgentConfig,
    BCConfig,
    CoreConfig,
    EdgeConfig,
    EstimatorConfig,
    ExperimentConfig,
    LagrangianConfig,
    ModifierConfig,
    NetworkConfig,
    PPOConfig,
    PolicyNetConfig,
    RANConfig,
    SliceSLA,
    SliceSpec,
    SwitchingConfig,
    TrafficConfig,
    TransportConfig,
)
from repro.experiments.metrics import MethodResult, TrajectoryPoint
from repro.obs.diagnose import DiagnosisReport, Hypothesis
from repro.obs.slo import SloObjective, SloSpec
from repro.scenarios import (
    EVENT_TYPES,
    TRAFFIC_MODEL_TYPES,
    ScenarioSpec,
    SliceTemplate,
)

TAG = "__repro__"

#: Declarative dataclasses that round-trip via the generic wrapper.
DATACLASS_TYPES = {
    cls.__name__: cls
    for cls in (
        # the config object graph
        AgentConfig, BCConfig, CoreConfig, EdgeConfig, EstimatorConfig,
        ExperimentConfig, LagrangianConfig, ModifierConfig,
        NetworkConfig, PPOConfig, PolicyNetConfig, RANConfig, SliceSLA,
        SliceSpec, SwitchingConfig, TrafficConfig, TransportConfig,
        # the scenario object graph
        ScenarioSpec, SliceTemplate, *TRAFFIC_MODEL_TYPES, *EVENT_TYPES,
        # the SLO object graph (health contracts pin like scenarios)
        SloObjective, SloSpec,
        # the diagnosis object graph (reports ship as artifacts)
        DiagnosisReport, Hypothesis,
    )
}


#: Modules imported (lazily, in order) when decoding hits an unknown
#: dataclass tag: packages above this layer register their types via
#: :func:`register_dataclass` at import time, and a cold process can
#: decode a cached result before anything imported them.  Module
#: *names* only -- importing them here would recreate the cycle.
LAZY_REGISTRATION_MODULES = ("repro.fleet",)


def register_dataclass(cls: type) -> type:
    """Opt a frozen declarative dataclass into the tagged round-trip.

    Packages that sit *above* this module (e.g. :mod:`repro.fleet`)
    register their specs/results at import time instead of being
    imported here, which would create an import cycle through the
    layers they build on (their module *name* goes in
    :data:`LAZY_REGISTRATION_MODULES` so cold decodes can find them).
    Returns ``cls`` so it works as a decorator.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    existing = DATACLASS_TYPES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(f"dataclass tag {cls.__name__!r} is already "
                         f"registered to {existing!r}")
    DATACLASS_TYPES[cls.__name__] = cls
    return cls


#: dtype kinds the array record carries: bool, signed / unsigned
#: integer, float, complex.
ARRAY_KINDS = "biufc"


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """The ndarray record: little-endian C-order bytes in base64."""
    if arr.dtype.kind not in ARRAY_KINDS:
        raise TypeError(f"cannot encode a {arr.dtype} array for the "
                        "result cache")
    dtype = arr.dtype.newbyteorder("<")
    raw = arr.astype(dtype, copy=False).tobytes()
    return {TAG: "ndarray", "dtype": dtype.str, "shape": list(arr.shape),
            "b64": base64.b64encode(raw).decode("ascii")}


def decode_array(record: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`: a writable array that owns its
    data.  Any malformed record raises :class:`ValueError`."""
    if not isinstance(record, dict):
        raise ValueError(f"ndarray record is a {type(record).__name__}, "
                         "not an object")
    missing = [key for key in ("dtype", "shape", "b64")
               if key not in record]
    if missing:
        raise ValueError(f"ndarray record is missing {missing}")
    text, shape, b64 = record["dtype"], record["shape"], record["b64"]
    try:
        dtype = np.dtype(text) if isinstance(text, str) else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in ARRAY_KINDS:
        raise ValueError(f"ndarray record has unknown or unsupported "
                         f"dtype {text!r} (bool and numeric only)")
    if dtype.newbyteorder("<").str != text:
        raise ValueError(f"ndarray record dtype {text!r} is not a "
                         f"little-endian type string such as '<f8'")
    if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"ndarray record shape {shape!r} is not a list "
                         "of non-negative integers")
    try:
        raw = base64.b64decode(b64, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error included
        raise ValueError(f"ndarray record b64 is not base64 text: "
                         f"{exc}") from None
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"ndarray record holds {len(raw)} bytes; "
                         f"{text} shape {shape} needs {expected}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-dumpable primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, TrajectoryPoint):
        return {TAG: "trajectory_point",
                "fields": to_jsonable(dataclasses.asdict(obj))}
    if isinstance(obj, MethodResult):
        fields = {f.name: getattr(obj, f.name)
                  for f in dataclasses.fields(obj)
                  if f.name != "trajectory"}
        return {TAG: "method_result",
                "fields": to_jsonable(fields),
                "trajectory": [to_jsonable(p) for p in obj.trajectory]}
    if isinstance(obj, RuleBasedPolicy):
        return {TAG: "rule_based_policy",
                "slice_name": obj.slice_name, "app": obj.app,
                "bin_edges": encode_array(obj.bin_edges),
                "actions": encode_array(obj.actions)}
    if (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            and DATACLASS_TYPES.get(type(obj).__name__) is type(obj)):
        fields = {f.name: to_jsonable(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {TAG: "dataclass", "type": type(obj).__name__,
                "fields": fields}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        # tagged so warm-cache results keep their exact types
        return {TAG: "tuple", "items": [to_jsonable(v) for v in obj]}
    if isinstance(obj, list):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} for the "
                    "result cache")


def from_jsonable(obj: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    if isinstance(obj, dict):
        tag = obj.get(TAG)
        if tag == "ndarray":
            return decode_array(obj)
        if tag == "tuple":
            return tuple(from_jsonable(v) for v in obj["items"])
        if tag == "trajectory_point":
            return TrajectoryPoint(**from_jsonable(obj["fields"]))
        if tag == "method_result":
            fields = from_jsonable(obj["fields"])
            fields["trajectory"] = [from_jsonable(p)
                                    for p in obj["trajectory"]]
            return MethodResult(**fields)
        if tag == "rule_based_policy":
            return RuleBasedPolicy(
                obj["slice_name"], obj["app"],
                decode_array(obj["bin_edges"]),
                decode_array(obj["actions"]))
        if tag == "dataclass":
            cls = DATACLASS_TYPES.get(obj["type"])
            if cls is None:
                import importlib

                for module in LAZY_REGISTRATION_MODULES:
                    importlib.import_module(module)
                    cls = DATACLASS_TYPES.get(obj["type"])
                    if cls is not None:
                        break
            if cls is None:
                raise ValueError(
                    f"unknown dataclass tag {obj['type']!r}")
            return cls(**from_jsonable(obj["fields"]))
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj
