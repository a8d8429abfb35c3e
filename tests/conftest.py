"""Shared fixtures: canonical models, a pooled model set, and model files."""

import json

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized and deadline-free, so every run replays the same examples
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

from gml import WeightedModel, random_weighted_model
from gml.rng import substream
from gml.serialization import save_model

POOL_SEED = 20260825
# a triangular bipyramid's 5 vertices plus an interior point: integer weights
# whose hull has 5 vertices and 6 facets at every scale
BIPYRAMID = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0.5, 0.5, 0.5))


def make_bipyramid_model(scale: float) -> WeightedModel:
    """The bipyramid weights times ``scale`` on the whole algebra."""
    return WeightedModel(name="bipyramid", weights=[[scale * w for w in row] for row in BIPYRAMID],
                         subalgebra=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def make_square_model() -> WeightedModel:
    """Four distinct weights at the corners of the unit square."""
    return WeightedModel(
        name="unit-square",
        weights=[[0, 0], [1, 0], [0, 1], [1, 1]],
        subalgebra=[[1, 0], [0, 1]],
    )


def make_segment_model() -> WeightedModel:
    """Repeated weight (1,0) twice plus the origin; hull degenerates to a segment."""
    return WeightedModel(
        name="repeated-weight",
        weights=[[1, 0], [1, 0], [0, 0]],
        subalgebra=[[1, 0], [0, 1]],
    )


@pytest.fixture
def square_model() -> WeightedModel:
    return make_square_model()


@pytest.fixture
def segment_model() -> WeightedModel:
    return make_segment_model()


@pytest.fixture(scope="session")
def model_pool() -> list[WeightedModel]:
    """The two canonical models plus 50 random integer-weight models."""
    rng = substream(POOL_SEED, 0)
    pool = [make_square_model(), make_segment_model()]
    pool += [random_weighted_model(rng, name=f"random-{k}") for k in range(50)]
    return pool


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_model(make_square_model(), path)
    return path


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    save_model(make_segment_model(), path)
    return path


@pytest.fixture
def malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "broken", "num_coords": 2,\n  "weights": [[1]]')
    return path


@pytest.fixture
def wrong_shape_file(tmp_path):
    path = tmp_path / "shape.json"
    obj = {
        "name": "shape",
        "num_coords": 3,
        "torus_dim": 2,
        "weights": [[1, 0], [0, 1]],
        "subalgebra": [[1, 0]],
    }
    path.write_text(json.dumps(obj))
    return path
