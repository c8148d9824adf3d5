"""One JSON serializer for every report dataclass."""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def _plain(obj):
    """Dataclass fields as dicts, numpy scalars as the Python values they hold."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def to_json(report) -> str:
    return json.dumps(_plain(report), sort_keys=True)
