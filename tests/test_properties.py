"""Property tests: batched kernels against their scalar wrappers and the
independent oracles in ``_oracles``."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from gml import ProjPoint, WeightedModel, composed_limit, flow_limit, perturbed_limit  # noqa: E402
from gml.hull import Polytope  # noqa: E402
from gml.model import (  # noqa: E402
    limit_support,
    model_chain_threshold_witness,
    random_weighted_model,
)
from gml.rng import substream, trial_streams  # noqa: E402
from gml.serialization import jsonify  # noqa: E402
from gml.spectral import (  # noqa: E402
    SymMat,
    box_radius,
    delta_threshold,
    delta_threshold_witness,
    kernel_equality_rows,
    perturbed_kernel_equality,
)

from _oracles import (  # noqa: E402
    box_radius_loop,
    eps_grid_kernel_equality,
    in_hull_lp,
    leading_sign,
    lex_argmax_support,
    pair_speeds,
)


@st.composite
def models_and_points(draw):
    """Integer-weight model with the identity basis, plus a batch of points."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                                     min_size=n, max_size=n)), dtype=float)
    model = WeightedModel(name="prop", weights=weights, subalgebra=np.eye(m))
    rows = draw(st.integers(1, 6))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n)
                          .filter(any), min_size=rows, max_size=rows))
    vals = draw(st.lists(st.lists(st.integers(1, 9), min_size=n, max_size=n),
                         min_size=rows, max_size=rows))
    coords = np.where(masks, vals, 0).astype(float)
    return model, [ProjPoint(c) for c in coords]


def _mask(points):
    return np.array([x.support_mask for x in points])


@given(models_and_points(), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_flow_limit_kernel_agrees_with_wrapper_and_oracle(case, direction):
    model, points = case
    beta = np.array(direction[:model.torus_dim], dtype=float)
    batch = limit_support((model.weights @ beta)[None, :], _mask(points))
    for row, x in zip(batch, points):
        support = tuple(np.flatnonzero(row).tolist())
        assert flow_limit(model, beta, x).support == support
        assert lex_argmax_support(model.weights, [beta], x.support) == support


@given(models_and_points())
def test_composed_kernel_agrees_with_wrapper_and_oracle(case):
    model, points = case
    batch = _mask(points)
    for a in model.subalgebra:
        batch = limit_support((model.weights @ a)[None, :], batch)
    for row, x in zip(batch, points):
        support = tuple(np.flatnonzero(row).tolist())
        assert composed_limit(model, None, x).support == support
        assert lex_argmax_support(model.weights, model.subalgebra, x.support) == support


@given(models_and_points(), st.lists(st.floats(1e-3, 0.05), min_size=6, max_size=6))
def test_perturbed_kernel_agrees_with_wrapper_and_composed(case, steps):
    # weight differences are integers of size at most 6 per slot, so nested
    # steps s, s^2, ... with s <= 0.05 keep every lexicographic sign; each
    # point gets its own s, so every row has its own level vector
    model, points = case
    powers = np.arange(1.0, model.subalgebra_dim)
    eps = np.array(steps[:len(points)])[:, None] ** powers
    betas = model.subalgebra[0] + eps @ model.subalgebra[1:]
    batch = limit_support(betas @ model.weights.T, _mask(points))
    for row, x, e in zip(batch, points, eps):
        support = tuple(np.flatnonzero(row).tolist())
        assert perturbed_limit(model, None, e, x).support == support
        assert lex_argmax_support(model.weights, model.subalgebra, x.support) == support


@st.composite
def hulls_and_queries(draw):
    """Integer point sets of every affine rank in R^2 or R^3, and queries on
    a quarter grid: each query lies on a face or clearly off it."""
    d = draw(st.integers(2, 3))
    pts = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                        min_size=1, max_size=6))
    queries = draw(st.lists(st.lists(st.integers(-12, 12), min_size=d, max_size=d),
                            min_size=1, max_size=8))
    return np.array(pts, dtype=float), np.array(queries, dtype=float) / 4.0


@given(hulls_and_queries())
def test_batched_hull_queries_agree_with_lp_and_scalar(case):
    pts, queries = case
    poly = Polytope(pts)
    inside = poly.contains_batch(queries)
    strict = poly.strictly_inside_batch(queries)
    assert inside.tolist() == [in_hull_lp(pts, q) for q in queries]
    assert inside.tolist() == [poly.contains(q) for q in queries]
    assert strict.tolist() == [poly.strictly_inside(q) for q in queries]
    assert not (strict & ~inside).any()


DRAWS = {
    "standard_normal": lambda g, size: g.standard_normal(size),
    "random": lambda g, size: g.random(size),
    "integers": lambda g, size: g.integers(-9, 10, size=size),
    "uniform": lambda g, size: g.uniform(0.0, 0.75, size=size),
    # 32-bit draws leave half of a 64-bit word buffered in the generator
    "random32": lambda g, size: g.random(size, dtype=np.float32),
}


@given(st.integers(0, 2**64 - 1), st.integers(1, 5),
       st.lists(st.tuples(st.sampled_from(sorted(DRAWS)), st.integers(1, 5)),
                min_size=1, max_size=6))
def test_trial_streams_draw_as_substreams(seed, n, plan):
    for k, gen in trial_streams(seed, n):
        ref = substream(seed, k)
        for kind, size in plan:
            assert np.array_equal(DRAWS[kind](gen, size), DRAWS[kind](ref, size))


@st.composite
def commuting_pairs(draw):
    """Q diag(a) Q^T and Q diag(b) Q^T with integer levels in [-5, 5] and
    one random orthogonal Q, in dimension 2 to 12."""
    n = draw(st.integers(2, 12))
    levels = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    q, _ = np.linalg.qr(substream(draw(st.integers(0, 2**32)), 0).standard_normal((n, n)))
    return tuple(SymMat((q * np.array(draw(levels), dtype=float)) @ q.T) for _ in range(2))


@given(commuting_pairs(), st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
       st.sampled_from([None, 1e-9]))
def test_kernel_equality_rows_agree_with_scalar_checks(pair, steps, kernel_tol):
    # steps are multiples of delta, so rows fall on both sides of it;
    # eps = delta itself is the last row whenever delta is finite
    alpha, beta = pair
    delta = delta_threshold(alpha, beta)
    eps = [s * delta for s in steps] + [delta] if math.isfinite(delta) else steps
    holds, dims, dist = kernel_equality_rows(alpha, beta, eps, kernel_tol=kernel_tol)
    assert holds.shape == dist.shape == (len(eps),) and dims.shape == (len(eps), 3)
    for e, row_holds, row_dims, row_dist in zip(eps, holds, dims, dist):
        rep = perturbed_kernel_equality(alpha, beta, e, kernel_tol=kernel_tol)
        assert row_holds == rep.holds
        assert tuple(row_dims) == rep.dims
        assert row_dist.tobytes() == np.float64(rep.projector_distance).tobytes()


@given(commuting_pairs())
def test_delta_threshold_agrees_with_grid_oracle(pair):
    """Kernel equality holds on a grid below delta, and a threshold witnessed
    by levels of opposite sign is tight: the kernel jumps at eps = delta."""
    alpha, beta = pair
    delta = delta_threshold(alpha, beta)
    if not math.isfinite(delta):
        assert all(eps_grid_kernel_equality(alpha.entries, beta.entries, [0.01, 1.0, 100.0]))
        return
    grid = [f * delta for f in (0.01, 0.25, 0.5, 0.75, 0.99)]
    assert all(eps_grid_kernel_equality(alpha.entries, beta.entries, grid))
    _, witnesses = delta_threshold_witness(alpha, beta)
    if any(a * b < 0 for a, b in witnesses):
        assert eps_grid_kernel_equality(alpha.entries, beta.entries, [delta]) == [False]


@given(st.integers(0, 2**32), st.booleans(),
       st.lists(st.floats(1e-3, 0.999), min_size=3, max_size=3))
def test_model_chain_threshold_keeps_every_pair_sign(seed, stored, fractions):
    """Inside the box every pair speed keeps the sign of its leading
    significant entry, and at eps = delta every probe pair ties."""
    model = random_weighted_model(substream(seed, 0), max_coords=7)
    d = model.subalgebra_dim
    alphas = model.subalgebra
    if not stored:
        alphas = substream(seed, 1).standard_normal((d, d)) @ alphas
    svals = np.linalg.svd(alphas, compute_uv=False)
    if svals[-1] <= 1e-6 * svals[0]:
        return  # an ill-conditioned mix is not a basis worth checking
    delta, probes = model_chain_threshold_witness(model, alphas)
    if delta == 0.0:
        return  # no uniform box for this basis: nothing to sample
    speeds = pair_speeds(model.weights, alphas)
    tol = 1e-12 * max(1.0, max(float(np.abs(v).max()) for v in speeds.values()))
    eps = np.array(fractions[:d - 1]) * min(delta, 1.0)
    for v in speeds.values():
        lead = leading_sign(v, tol)
        if lead:
            assert np.sign(v[0] + eps @ v[1:]) == lead
    for pair in probes:
        v = speeds[pair]
        assert abs(v[0] + delta * v[1:].sum()) <= 1e-9 * np.abs(v).max()


@st.composite
def level_tables(draw):
    """(P, k) level table of small integers, optionally scaled per slot to
    non-integers, with a scalar or per-slot tolerance."""
    p, k = draw(st.integers(0, 8)), draw(st.integers(1, 5))
    rows = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                                  min_size=p, max_size=p)), dtype=float).reshape(p, k)
    if draw(st.booleans()):
        rows = rows * np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)))
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.5]),
                         st.lists(st.sampled_from([0.0, 0.5, 2.5]), min_size=k, max_size=k)
                         .map(np.array)))
    return rows, tol


@given(level_tables())
def test_box_radius_agrees_with_row_loop(case):
    levels, tol = case
    delta, binding, ties = box_radius(levels, tol)
    want_delta, want_binding, want_ties = box_radius_loop(levels, tol)
    assert delta == want_delta
    assert np.flatnonzero(binding).tolist() == want_binding
    assert np.flatnonzero(ties).tolist() == want_ties


_finite_or_inf = st.floats(allow_nan=False)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1), _finite_or_inf,
    st.text(max_size=4).filter(lambda t: t not in ("inf", "-inf")),
    _finite_or_inf.map(np.float64), st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-2**31, 2**31 - 1).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]), hnp.array_shapes(min_dims=0),
               elements={"allow_nan": False}),
)


def _plain(value):
    """What jsonify should produce, decoded: numpy values as Python ones,
    tuples as lists, keys as strings."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _decode(obj):
    """Parse the report encoding back: the strings "inf" and "-inf" are the
    infinities."""
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return {"inf": math.inf, "-inf": -math.inf}.get(obj, obj) if isinstance(obj, str) else obj


def _same(a, b) -> bool:
    """Equal values of equal types; floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@given(st.recursive(_json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.tuples(kids, kids),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-9, 9)), kids, max_size=4)),
    max_leaves=12))
def test_jsonify_round_trips_through_json(value):
    # nested dicts, lists and tuples of numpy arrays and scalars, Python
    # numbers and +-inf survive dumps and loads exactly
    text = json.dumps(jsonify(value), allow_nan=False)
    assert _same(_decode(json.loads(text)), _plain(value))
