"""Shared report primitives: named bound checks and canonical JSON.

Every verification routine in this package returns machine-readable reports
built from plain dicts, lists, floats, and :class:`BoundCheck` entries.  The
canonical JSON form (sorted keys, no whitespace) is what the determinism
contract is stated against: identical inputs and seeds must reproduce the
canonical serialization byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

__all__ = ["BoundCheck", "default", "canonical_json"]


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: ``lhs <= rhs`` unless noted otherwise."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    note: str = ""


def default(obj):
    """``json.dumps``' hook for what it cannot write itself, without copying the report.

    An ndarray becomes its ``tolist()`` (a 0-d array its scalar), a numpy
    scalar its ``item()``, and a dataclass instance the map of its fields,
    whose values ``json.dumps`` then writes in turn.  Dict keys are left to
    ``json.dumps``, which sorts them as given; the reports key by ``str``.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Deterministic serialization used for byte-identical report comparison."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
