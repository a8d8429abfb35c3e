"""Model files, JSON encoding conventions, and parse diagnostics."""

import json
import math

import numpy as np
import pytest

from gml import SymMat, WeightedModel
from gml.errors import ModelParseError
from gml.serialization import (
    jsonify,
    load_model,
    matrix_from_obj,
    matrix_to_obj,
    model_to_obj,
    parse_model_obj,
    read_json,
    save_model,
    subspace_to_obj,
)
from gml.spectral import kernel


def test_model_file_round_trip(square_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(square_model, path)
    loaded = load_model(path)
    assert loaded.name == square_model.name
    assert np.array_equal(loaded.weights, square_model.weights)
    assert np.array_equal(loaded.subalgebra, square_model.subalgebra)


def test_model_obj_has_documented_fields(square_model):
    obj = model_to_obj(square_model)
    assert set(obj) == {"name", "num_coords", "torus_dim", "weights", "subalgebra"}
    assert obj["num_coords"] == 4
    assert obj["torus_dim"] == 2


def test_malformed_json_reports_position(malformed_file):
    with pytest.raises(ModelParseError) as err:
        load_model(malformed_file)
    assert "line" in str(err.value)


def test_missing_field_is_named(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"name": "x", "num_coords": 2, "torus_dim": 1,
                                "weights": [[1], [0]]}))
    with pytest.raises(ModelParseError) as err:
        load_model(path)
    assert "subalgebra" in str(err.value)


def test_shape_mismatch_is_reported(wrong_shape_file):
    with pytest.raises(ModelParseError):
        load_model(wrong_shape_file)


def test_nonexistent_file_raises_parse_error(tmp_path):
    with pytest.raises(ModelParseError):
        load_model(tmp_path / "absent.json")


def test_parse_model_obj_rejects_non_dict():
    with pytest.raises(ModelParseError):
        parse_model_obj([1, 2, 3])


def test_jsonify_infinities_and_arrays():
    out = jsonify({"a": math.inf, "b": [-math.inf, 1.0], "c": np.arange(3.0)})
    assert out == {"a": "inf", "b": ["-inf", 1.0], "c": [0.0, 1.0, 2.0]}
    assert json.dumps(out)  # round-trips through the json module


def test_jsonify_rejects_nan():
    with pytest.raises(ValueError):
        jsonify(float("nan"))


def test_matrix_round_trip():
    mat = SymMat([[2, 1], [1, 3]])
    again = matrix_from_obj(matrix_to_obj(mat))
    assert np.array_equal(again.entries, mat.entries)


def test_matrix_from_obj_rejects_garbage():
    with pytest.raises(ModelParseError):
        matrix_from_obj([["a", "b"]])


def test_subspace_serialized_as_basis_rows():
    rows = subspace_to_obj(kernel(SymMat.diag([0, 0, 1])))
    arr = np.array(rows, dtype=float)
    assert arr.shape == (2, 3)
    assert np.allclose(arr @ arr.T, np.eye(2), atol=1e-12)
    assert np.allclose(arr[:, 2], 0.0)


def test_loaded_model_enforces_invariants(tmp_path):
    path = tmp_path / "degenerate.json"
    obj = {"name": "degenerate", "num_coords": 2, "torus_dim": 2,
           "weights": [[0, 0], [1, 1]], "subalgebra": [[1, 1], [2, 2]]}
    path.write_text(json.dumps(obj))
    with pytest.raises(Exception):
        load_model(path)


@pytest.mark.parametrize("field", ["num_coords", "torus_dim"])
def test_boolean_dimension_is_rejected(field):
    # JSON true is a Python int: it must not pass as the count 1
    obj = {"name": "flag", "num_coords": 2, "torus_dim": 1,
           "weights": [[1], [0]], "subalgebra": [[1]], field: True}
    with pytest.raises(ModelParseError, match="must be integers"):
        parse_model_obj(obj)


@pytest.mark.parametrize("field, value", [("weights", [[True], [False]]),
                                          ("weights", [[1], [False]]),
                                          ("subalgebra", [[True]])])
def test_boolean_matrix_entries_are_rejected(field, value):
    # numpy reads true/false as 1.0/0.0: the model would load as another model
    obj = {"name": "flag", "num_coords": 2, "torus_dim": 1,
           "weights": [[1], [0]], "subalgebra": [[1]], field: value}
    with pytest.raises(ModelParseError, match=f"'{field}' is not a numeric matrix"):
        parse_model_obj(obj)


def test_boolean_matrix_from_obj_is_rejected():
    with pytest.raises(ModelParseError, match="not a numeric matrix"):
        matrix_from_obj([[True, 0], [0, False]])
    assert matrix_from_obj([[1, 0], [0, 0]]).entries.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_read_json_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(ModelParseError, match="latin1.json"):
        read_json(path)
    with pytest.raises(ModelParseError):
        load_model(path)


def test_read_json_reports_position(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text("[[1, 0],\n [0, 1]")
    with pytest.raises(ModelParseError, match="line 2"):
        read_json(path)
