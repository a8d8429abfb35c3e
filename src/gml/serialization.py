"""JSON interchange: model files, matrices, and report-safe values.

Conventions: matrices travel as row-major arrays of arrays of doubles,
subspaces as lists of basis vectors, and non-finite thresholds as the
JSON strings "inf" / "-inf".
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ModelParseError
from .model import WeightedModel
from .spectral import Subspace, SymMat


def jsonify(value):
    """Recursively convert a value into JSON-serializable primitives."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()  # a Python scalar, or nested lists of them
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ValueError("refusing to serialize NaN")
        return value
    return value


def _require_field(obj: dict, field: str, source: str):
    if field not in obj:
        raise ModelParseError(f"{source}: missing field '{field}'")
    return obj[field]


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, (list, tuple))
                                       and any(_holds_bool(v) for v in value))


def _float_array(value) -> np.ndarray:
    """A parsed JSON value as a float array.  JSON booleans are rejected:
    numpy would read them as 1.0 and 0.0."""
    if _holds_bool(value):
        raise ValueError("true/false is not a number")
    return np.array(value, dtype=float)


def _as_matrix_field(value, field: str, source: str) -> np.ndarray:
    try:
        arr = _float_array(value)
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"{source}: field '{field}' is not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise ModelParseError(f"{source}: field '{field}' must be a list of equal-length rows")
    return arr


def parse_model_obj(obj, source: str = "<model>") -> WeightedModel:
    """Build a model from a parsed JSON object, with field diagnostics."""
    if not isinstance(obj, dict):
        raise ModelParseError(f"{source}: top level must be a JSON object")
    name = _require_field(obj, "name", source)
    if not isinstance(name, str):
        raise ModelParseError(f"{source}: field 'name' must be a string")
    num_coords = _require_field(obj, "num_coords", source)
    torus_dim = _require_field(obj, "torus_dim", source)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (num_coords, torus_dim)):
        raise ModelParseError(f"{source}: fields 'num_coords' and 'torus_dim' must be integers")
    weights = _as_matrix_field(_require_field(obj, "weights", source), "weights", source)
    sub = _as_matrix_field(_require_field(obj, "subalgebra", source), "subalgebra", source)
    if weights.shape != (num_coords, torus_dim):
        raise ModelParseError(
            f"{source}: field 'weights' has shape {weights.shape}, "
            f"expected ({num_coords}, {torus_dim})")
    if sub.shape[1] != torus_dim:
        raise ModelParseError(
            f"{source}: field 'subalgebra' rows have length {sub.shape[1]}, expected {torus_dim}")
    try:
        return WeightedModel(name=name, weights=weights, subalgebra=sub)
    except ValueError as exc:
        raise ModelParseError(f"{source}: {exc}") from None


def read_json(path):
    """The value of a UTF-8 JSON file; ModelParseError names the file and,
    for a syntax error, its line and column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"{path}: cannot read JSON file: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_model(path) -> WeightedModel:
    """Read a model file, raising ModelParseError with line diagnostics."""
    return parse_model_obj(read_json(path), source=str(path))


def model_to_obj(model: WeightedModel) -> dict:
    return {
        "name": model.name,
        "num_coords": model.num_coords,
        "torus_dim": model.torus_dim,
        "weights": jsonify(model.weights),
        "subalgebra": jsonify(model.subalgebra),
    }


def save_model(model: WeightedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_obj(model), indent=2) + "\n")


def matrix_to_obj(mat: SymMat):
    return jsonify(mat.entries)


def matrix_from_obj(obj) -> SymMat:
    try:
        arr = _float_array(obj)
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"not a numeric matrix: {exc}") from None
    return SymMat(arr)


def subspace_to_obj(sub: Subspace):
    """A subspace as a list of basis vectors (rows)."""
    return jsonify(sub.basis.T)
