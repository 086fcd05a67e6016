"""Small helpers shared across the simulator packages."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def require_power_of_two(value: int, name: str) -> int:
    """Return ``value`` after checking it is a positive power of two.

    All table and set geometries in the simulator are indexed with masks,
    so every size must satisfy this; centralising the guard keeps the
    error message uniform.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def write_json(payload: Any, path: str | Path) -> Path:
    """Write ``payload`` as an indented, key-sorted JSON artifact.

    The one writer for the run, sweep-report and campaign JSON files: the
    parent directory is created, and the bytes are a pure function of the
    payload.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
