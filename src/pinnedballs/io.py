"""JSON file formats: configurations, schedules, half-space families, traces.

All on-disk formats use 1-based ball indices; the API is 0-based.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import Schedule, SimulationTrace
from .foldings import HalfSpace
from .geometry import (
    DEFAULT_CONTACT_TOLERANCE,
    BallConfiguration,
    Edge,
    StateVector,
    validate_configuration,
)


def _numbers_only(value) -> bool:
    """Whether a JSON value is a number or a list of numbers at any depth.  JSON
    true, false and strings are not numbers, though float() would take them."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return type(value) in (int, float)


def load_configuration(
    path: str | Path,
) -> tuple[BallConfiguration, StateVector | None]:
    """Read {"dimension", "centers", "velocities"?, "contact_tolerance"?}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "centers" not in data:
        raise ValueError(f"{path}: need a JSON object with 'centers'")
    for name in ("dimension", "contact_tolerance", "centers", "velocities"):
        if data.get(name) is not None and not _numbers_only(data[name]):
            raise ValueError(f"{path}: '{name}' must hold JSON numbers only")
    config = validate_configuration(
        data["centers"],
        dimension=data.get("dimension"),
        contact_tolerance=data.get("contact_tolerance", DEFAULT_CONTACT_TOLERANCE),
    )
    state = None
    if data.get("velocities") is not None:
        blocks = np.array(data["velocities"], dtype=float)
        if blocks.shape != (config.n, config.dimension):
            raise ValueError(
                f"{path}: velocities shape {blocks.shape} does not match centers"
            )
        if not np.all(np.isfinite(blocks)):
            raise ValueError(f"{path}: velocities must be finite numbers")
        state = StateVector(config.n, config.dimension, blocks.reshape(-1))
    return config, state


def save_configuration(
    path: str | Path,
    config: BallConfiguration,
    velocities: StateVector | None = None,
) -> None:
    data: dict = {
        "dimension": config.dimension,
        "centers": config.centers.tolist(),
        "contact_tolerance": config.contact_tolerance,
    }
    if velocities is not None:
        data["velocities"] = velocities.blocks().tolist()
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_schedule(path: str | Path) -> Schedule:
    """Read a JSON array of 1-based [i, j] pairs into an explicit schedule.

    Ball indices must be JSON integers: a fraction, a bool or a string raises
    ValueError rather than being rounded or cast to a ball.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: schedule file must be a JSON array of pairs")
    edges: list[Edge] = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"{path}: schedule entries must be [i, j] pairs")
        if not all(type(k) is int for k in entry):
            raise ValueError(f"{path}: ball indices must be integers, got {entry}")
        i, j = entry
        if i < 1 or j < 1:
            raise ValueError(f"{path}: ball indices are 1-based, got {entry}")
        edges.append((i - 1, j - 1))
    return Schedule.explicit(edges)


def save_schedule(path: str | Path, edges: Sequence[Edge]) -> None:
    with open(path, "w") as fh:
        json.dump([[i + 1, j + 1] for i, j in edges], fh)
        fh.write("\n")


def load_halfspaces(path: str | Path) -> list[HalfSpace]:
    """Read {"dimension": m, "normals": [[...], ...]}; normals are normalized."""
    with open(path) as fh:
        data = json.load(fh)
    m = data.get("dimension")
    normals = data.get("normals")
    if m is None or normals is None:
        raise ValueError(f"{path}: need 'dimension' and 'normals'")
    out = []
    for idx, normal in enumerate(normals):
        if len(normal) != m:
            raise ValueError(f"{path}: normal {idx} has wrong dimension")
        out.append(HalfSpace.from_vector(normal))
    return out


def save_halfspaces(path: str | Path, halfspaces: Sequence[HalfSpace]) -> None:
    if not halfspaces:
        raise ValueError("need at least one half-space")
    data = {
        "dimension": halfspaces[0].dimension,
        "normals": [h.normal.tolist() for h in halfspaces],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_trace_jsonl(path: str | Path, trace: SimulationTrace) -> None:
    """One JSON record per step: {t, edge, changed, F, energy}."""
    with open(path, "w") as fh:
        trace.write_jsonl(fh)
