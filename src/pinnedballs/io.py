"""JSON file formats: configurations, schedules, half-space families, traces.

All on-disk formats and every CLI report use 1-based ball indices; the API is
0-based, and :func:`one_based` is where an edge changes from one to the other.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

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


#: The shape that each nesting depth of a numeric field names in error messages.
_SHAPES = ("a number", "a flat list", "a list of lists")


def _numbers_only(value, depth: int) -> bool:
    """Whether a JSON value is a number nested in exactly ``depth`` lists.  JSON
    true, false and strings are not numbers, though float() would take them."""
    if depth:
        return isinstance(value, list) and all(_numbers_only(v, depth - 1) for v in value)
    return type(value) in (int, float)


def _require_numbers(where: str, name: str, value, depth: int) -> None:
    if not _numbers_only(value, depth):
        raise ValueError(f"{where}'{name}' must hold JSON numbers only, as {_SHAPES[depth]}")


def _parse_json(where: str, text: str | bytes):
    """The JSON value of ``text``, bytes read as UTF-8; input that is not JSON,
    or bytes that are not UTF-8, raise ValueError naming ``where``."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{where}: not valid JSON: {exc}") from None


def _load_object(path: str | Path, required: tuple[str, ...], depths: dict[str, int]) -> dict:
    """Read a JSON object whose ``required`` keys are not null; every field
    named in ``depths`` that is present must hold numbers nested that deep."""
    data = _parse_json(str(path), Path(path).read_bytes())
    if not isinstance(data, dict) or any(data.get(name) is None for name in required):
        raise ValueError(f"{path}: need a JSON object with {' and '.join(map(repr, required))}")
    for name, depth in depths.items():
        if data.get(name) is not None:
            _require_numbers(f"{path}: ", name, data[name], depth)
    return data


def one_based(edges: Iterable[Edge]) -> list[list[int]]:
    """Edges as the 1-based [i, j] pairs of the file formats and reports."""
    return [[i + 1, j + 1] for i, j in edges]


def parse_point(name: str, text: str) -> list[float]:
    """A command-line point such as ``--start '[1, 0]'``: a JSON list of numbers."""
    point = _parse_json(name, text)
    _require_numbers("", name, point, 1)
    return point


def load_configuration(
    path: str | Path,
) -> tuple[BallConfiguration, StateVector | None]:
    """Read {"dimension", "centers", "velocities"?, "contact_tolerance"?}."""
    data = _load_object(
        path, ("centers",), {"dimension": 0, "contact_tolerance": 0, "centers": 2, "velocities": 2}
    )
    config = validate_configuration(
        data["centers"],
        dimension=data.get("dimension"),
        contact_tolerance=data.get("contact_tolerance", DEFAULT_CONTACT_TOLERANCE),
    )
    state = None
    if data.get("velocities") is not None:
        # checked first: np.array rejects ragged rows naming neither file nor field
        lengths = [len(row) for row in data["velocities"]]
        if lengths != [config.dimension] * config.n:
            raise ValueError(f"{path}: velocities rows of lengths {lengths} do not match "
                             f"centers ({config.n} rows of {config.dimension})")
        blocks = np.array(data["velocities"], dtype=float)
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
    data = _parse_json(str(path), Path(path).read_bytes())
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
        json.dump(one_based(edges), fh)
        fh.write("\n")


def load_halfspaces(path: str | Path) -> list[HalfSpace]:
    """Read {"dimension": m, "normals": [[...], ...]}; normals are normalized."""
    data = _load_object(path, ("dimension", "normals"), {"dimension": 0, "normals": 2})
    m, out = data["dimension"], []
    for idx, normal in enumerate(data["normals"]):
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
    """One JSON record per step: {t, edge, changed, F, energy}, where step t
    applied ``edge`` and F and energy are those of the state it left."""
    rows = zip(
        one_based(trace.edges), trace.changed.tolist(),
        trace.functional[1:].tolist(), trace.energies[1:].tolist(),
    )
    with open(path, "w") as fh:
        for t, (edge, changed, f, energy) in enumerate(rows, 1):
            record = {"t": t, "edge": edge, "changed": changed, "F": f, "energy": energy}
            fh.write(json.dumps(record) + "\n")
