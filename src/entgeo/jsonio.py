"""The JSON format of states and state polytopes, in one module.

A matrix is an object with JSON integers "rows" and "cols" (each at least
1) and its real and imaginary parts as flat row-major lists of JSON
numbers, "re" and "im".  A state is an object with "type" "density" and a
"matrix", or "pure" and its "amplitudes" as a one-column matrix, and its
split as JSON integers "dim_a" and "dim_b"; a state polytope has "type"
"state_polytope", the split and a list of matrices as "vertices".  The
split fixes each matrix's shape: n x n for a density matrix and a vertex,
n x 1 for the amplitudes, where n = dim_a * dim_b.

Each reader raises TypeError where a value has the wrong JSON type (true
is not 1, 2.0 is not 2, "1" is not 1) or a matrix the wrong shape for its
split, and KeyError where a key is missing; a value of the right type and
shape that breaks an invariant raises its constructor's ValueError.
``cli`` reads its input files here.
"""

from __future__ import annotations

import numpy as np

from .invsep import StatePolytope
from .matcore import DimSplit, _as_matrix
from .qstate import DensityMatrix, PureState


def _json_ints(obj, *keys) -> list[int]:
    """The values of ``keys`` in ``obj``; TypeError unless ``obj`` is a JSON
    object and each value is a JSON integer (true is not 1, 2.0 is not 2)
    of at least 1."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if type(obj.get(key)) is not int or obj[key] < 1:
            raise TypeError(f'"{key}" must be a JSON integer >= 1, got {obj.get(key)!r}')
    return [obj[key] for key in keys]


def _json_numbers(value, key: str) -> np.ndarray:
    """``value`` as a float array; TypeError unless it is a flat list of JSON
    numbers (true is not 1, "1" is not 1)."""
    if not isinstance(value, list) or not all(type(v) in (int, float) for v in value):
        raise TypeError(f'"{key}" must be a flat list of JSON numbers')
    return np.array(value, dtype=float)


def split_from_json(obj) -> DimSplit:
    """The split of a JSON state object, from its integer "dim_a" and "dim_b"."""
    return DimSplit(*_json_ints(obj, "dim_a", "dim_b"))


def matrix_to_json(m) -> dict:
    """One matrix as a JSON matrix object."""
    m = _as_matrix(m)
    if m.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of ``matrix_to_json``; TypeError unless "re" and "im" are flat
    lists of rows * cols JSON numbers."""
    rows, cols = _json_ints(obj, "rows", "cols")
    re, im = (_json_numbers(obj.get(key), key) for key in ("re", "im"))
    if len(re) != rows * cols or len(im) != rows * cols:
        raise TypeError(f"matrix payload length {len(re)}/{len(im)} does not match {rows}x{cols}")
    # set apart, so a -0.0 or an infinite part comes back as it was written
    z = re.astype(complex)
    z.imag = im
    return z.reshape(rows, cols)


def _shaped_matrix(obj, cols: int, split: DimSplit, what: str) -> np.ndarray:
    """``matrix_from_json`` of obj; TypeError unless it has split.dim rows
    and ``cols`` columns."""
    m = matrix_from_json(obj)
    if m.shape != (split.dim, cols):
        raise TypeError(
            f"{what} is {m.shape[0]}x{m.shape[1]}, expected {split.dim}x{cols} "
            f"on a {split.dim_a}x{split.dim_b} split"
        )
    return m


def state_to_json(state) -> dict:
    """A ``DensityMatrix`` or ``PureState`` as a JSON state object."""
    if isinstance(state, DensityMatrix):
        kind, key, m = "density", "matrix", state.mat
    elif isinstance(state, PureState):
        kind, key, m = "pure", "amplitudes", state.amps.reshape(-1, 1)
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return {
        "type": kind,
        "dim_a": state.split.dim_a,
        "dim_b": state.split.dim_b,
        key: matrix_to_json(m),
    }


def state_from_json(obj: dict):
    """Inverse of ``state_to_json``."""
    split = split_from_json(obj)
    if obj.get("type") == "density":
        return DensityMatrix(_shaped_matrix(obj["matrix"], split.dim, split, '"matrix"'), split)
    if obj.get("type") == "pure":
        return PureState(_shaped_matrix(obj["amplitudes"], 1, split, '"amplitudes"'), split)
    raise TypeError(f"unknown state type {obj.get('type')!r}")


def state_polytope_to_json(c: StatePolytope) -> dict:
    """A ``StatePolytope`` as a JSON state polytope object."""
    return {
        "type": "state_polytope",
        "dim_a": c.split.dim_a,
        "dim_b": c.split.dim_b,
        "vertices": [matrix_to_json(v) for v in c.vertices],
    }


def state_polytope_from_json(obj: dict) -> StatePolytope:
    """Inverse of ``state_polytope_to_json``; TypeError unless ``obj`` is an
    object with integer "dim_a" and "dim_b" and a list of matrix objects as
    "vertices", each n x n for the split."""
    split = split_from_json(obj)
    verts = obj.get("vertices")
    if not isinstance(verts, list) or not all(isinstance(v, dict) for v in verts):
        raise TypeError('"vertices" must be a list of matrix objects')
    mats = tuple(_shaped_matrix(v, split.dim, split, f"vertex {i}") for i, v in enumerate(verts))
    return StatePolytope(mats, split)
