"""Serializable experiment artifacts.

Every figure/table runner returns a plain frozen-dataclass payload
(tuples, dicts, NumPy arrays, nested dataclasses).  This module gives
those payloads one JSON representation:

* :func:`encode` — payload -> JSON-compatible data.  Dataclasses are
  tagged with their import path, tuples/dicts/arrays with structural
  tags, so nothing is lost in translation (dict keys may be tuples,
  arrays keep dtype and shape).
* :func:`decode` — the exact inverse; dataclasses are re-imported and
  reconstructed field by field.
* :func:`payload_equal` — recursive equality with a numeric tolerance
  (NaNs compare equal to NaNs), the comparison the round-trip tests and
  the artifact-parity acceptance check use.

Only ``repro``'s own result types are reconstructed: :func:`decode`
refuses to import classes from other top-level packages, so a JSON file
cannot name arbitrary import targets.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
import math
from typing import Any, Dict, Optional, Type

import numpy as np

_KIND = "__kind__"

#: Only classes under this package are reconstructed by :func:`decode`.
_TRUSTED_ROOT = "repro"


class ArtifactError(ValueError):
    """Raised when a payload cannot be encoded or decoded."""


def _type_path(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_type(path: str) -> Type[Any]:
    module_name, _, qualname = path.partition(":")
    root = module_name.split(".", 1)[0]
    if root != _TRUSTED_ROOT:
        raise ArtifactError(
            f"refusing to import {path!r}: only {_TRUSTED_ROOT}.* result "
            "types are reconstructed")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise ArtifactError(f"cannot resolve payload type {path!r}") from error
    if not isinstance(target, type):
        raise ArtifactError(f"{path!r} is not a class")
    return target


def encode(obj: Any) -> Any:
    """Encode a payload as JSON-compatible data (see module docstring)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json round-trips inf/nan as literals; keep plain floats plain.
        return obj
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return encode(obj.item())
    if isinstance(obj, enum.Enum):
        return {_KIND: "enum", "type": _type_path(obj), "value": obj.value}
    if isinstance(obj, np.ndarray):
        return {_KIND: "ndarray", "dtype": str(obj.dtype),
                "shape": list(obj.shape),
                "values": [encode(v) for v in obj.ravel().tolist()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields: Dict[str, Any] = {f.name: encode(getattr(obj, f.name))
                                  for f in dataclasses.fields(obj) if f.init}
        return {_KIND: "dataclass", "type": _type_path(obj), "fields": fields}
    if isinstance(obj, tuple):
        return {_KIND: "tuple", "items": [encode(item) for item in obj]}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        return {_KIND: "map",
                "items": [[encode(key), encode(value)]
                          for key, value in obj.items()]}
    raise ArtifactError(
        f"cannot encode {type(obj).__name__!r} payloads; supported: "
        "dataclasses, dict/list/tuple, numpy arrays and scalars")


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`."""
    if isinstance(data, list):
        return [decode(item) for item in data]
    if not isinstance(data, dict):
        return data
    kind = data.get(_KIND)
    if kind is None:
        raise ArtifactError(f"malformed artifact node: {data!r}")
    if kind == "tuple":
        return tuple(decode(item) for item in data["items"])
    if kind == "map":
        return {decode(key): decode(value) for key, value in data["items"]}
    if kind == "ndarray":
        values = [decode(v) for v in data["values"]]
        return np.asarray(values, dtype=np.dtype(data["dtype"])).reshape(
            tuple(data["shape"]))
    if kind == "enum":
        return _resolve_type(data["type"])(data["value"])
    if kind == "dataclass":
        cls = _resolve_type(data["type"])
        if not dataclasses.is_dataclass(cls):
            raise ArtifactError(f"{data['type']!r} is not a dataclass")
        fields = {name: decode(value)
                  for name, value in data["fields"].items()}
        return cls(**fields)
    raise ArtifactError(f"unknown artifact node kind {kind!r}")


def to_json(obj: Any, indent: Optional[int] = None) -> str:
    """``json.dumps(encode(obj))`` (NaN/inf kept as JSON literals)."""
    return json.dumps(encode(obj), indent=indent)


def from_json(text: str) -> Any:
    """Inverse of :func:`to_json`."""
    return decode(json.loads(text))


def canonical_json(obj: Any) -> str:
    """Deterministic serialization for content keys.

    ``json.dumps(encode(obj), sort_keys=True)`` with compact separators:
    two payloads that :func:`payload_equal` exactly (tolerance 0) encode
    to the same string, so both the runner's in-memory cache and the
    on-disk :class:`~repro.experiments.store.ResultStore` key entries by
    this form.
    """
    return json.dumps(encode(obj), sort_keys=True, separators=(",", ":"))


def _numbers_equal(a: float, b: float, tolerance: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tolerance


def payload_equal(a: Any, b: Any, tolerance: float = 1e-9) -> bool:
    """Recursive payload equality with numeric tolerance.

    Dataclasses must have the same type and equal fields; dicts the same
    keys; arrays equal shape and (to ``tolerance``) equal values, NaNs
    matching NaNs.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape or a_arr.dtype != b_arr.dtype:
            return False
        if a_arr.dtype.kind in "fc":
            return bool(np.allclose(a_arr, b_arr, rtol=0.0, atol=tolerance,
                                    equal_nan=True))
        return bool(np.array_equal(a_arr, b_arr))
    if isinstance(a, (np.bool_, np.integer, np.floating)):
        return payload_equal(a.item(), b, tolerance)
    if isinstance(b, (np.bool_, np.integer, np.floating)):
        return payload_equal(a, b.item(), tolerance)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _numbers_equal(float(a), float(b), tolerance)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return False
        return all(payload_equal(getattr(a, f.name), getattr(b, f.name),
                                 tolerance)
                   for f in dataclasses.fields(a))
    if isinstance(a, dict) and isinstance(b, dict):
        if len(a) != len(b):
            return False
        for key, value in a.items():
            if key in b:
                if not payload_equal(value, b[key], tolerance):
                    return False
                continue
            # Float/tuple keys may differ below tolerance; fall back to a
            # scan for a matching key.
            matches = [other for other in b if payload_equal(key, other,
                                                             tolerance)]
            if len(matches) != 1 or not payload_equal(value, b[matches[0]],
                                                      tolerance):
                return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(payload_equal(x, y, tolerance) for x, y in zip(a, b))
    return bool(a == b)


__all__ = [
    "ArtifactError",
    "canonical_json",
    "decode",
    "encode",
    "from_json",
    "payload_equal",
    "to_json",
]
