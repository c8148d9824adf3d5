"""Certificate outputs as plain JSON values, and the reference comparator.

Numbers match when ``|a - b| <= 1e-9 * max(1, |b|)``;
booleans, strings and dictionary keys must match exactly. Infinities match only
an infinity of the same sign.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

DEFAULT_TOL = 1e-9


def plain(obj):
    """Convert report dataclasses and numpy scalars to JSON-ready Python values.

    Report fields are read directly: the reports' own ``to_json`` methods do not
    all serialize numpy booleans.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return obj


def _number_matches(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= DEFAULT_TOL * max(1.0, abs(b))


def compare(actual, expected, path: str = "") -> list[str]:
    """Mismatches between an output and its reference, one message per field."""
    actual = plain(actual)
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        out = []
        if set(actual) != set(expected):
            out.append(f"{path}: keys {sorted(actual)} != {sorted(expected)}")
        for k in sorted(set(actual) & set(expected)):
            out += compare(actual[k], expected[k], f"{path}/{k}" if path else k)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {actual!r}"]
        out = []
        for i, (a, b) in enumerate(zip(actual, expected)):
            out += compare(a, b, f"{path}/{i}")
        return out
    if isinstance(expected, bool) or isinstance(actual, bool):
        ok = isinstance(actual, bool) and isinstance(expected, bool) and actual == expected
        return [] if ok else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if not isinstance(actual, (int, float)):
            return [f"{path}: expected a number, got {actual!r}"]
        ok = _number_matches(float(actual), float(expected))
        return [] if ok else [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
