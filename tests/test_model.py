"""Weighted torus actions on real projective space: maps, flows, limits."""

import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from gml import (
    ProjPoint,
    WeightedModel,
    certified_fraction,
    composed_limit,
    deterministic_generic_direction,
    direction_certificate,
    fixed_components,
    fixed_set_subalgebra,
    flow,
    flow_limit,
    fundamental_field,
    gapped_direction,
    gradient_map,
    model_chain_threshold,
    moment_polytope_check,
    orbit_hull_check,
    perturbed_limit,
    random_weighted_model,
    stabilizer_algebra,
)
from gml.campaigns import _random_point, run_campaign_model
from gml.errors import (
    BetaOutsideSubalgebra,
    DependentBasis,
    GmlError,
    GmlInputError,
    NonPositiveEpsilon,
    check_step_sizes,
)
from gml.hull import HULL_TOL, Polytope
from gml.model import (
    _ORBIT_SAMPLES,
    SUPP_TOL,
    _first_direction,
    _vector_labels,
    certify_levels,
    finite_speeds,
    flow_rows,
    model_chain_threshold_witness,
)
from gml.rng import substream

from _oracles import ScriptedNormals, first_accepted_loop, orbit_hull_loop, speeds_separated
from conftest import make_bipyramid_model

from _oracles import (
    ProjPointArray,
    composed_limit_array,
    flow_limit_array,
    lex_argmax_support,
    perturbed_limit_array,
)


S2 = 1 / math.sqrt(2)


def P(*coords) -> ProjPoint:
    return ProjPoint(list(coords))


def certified_direction(model, seed: int, attempts: int = 64):
    """The first of ``attempts`` unit directions on substream(seed, 0) whose
    speed partition is the joint partition, or None."""
    return _first_direction(model, substream(seed, 0), attempts, partial(certify_levels, model))


def limit_component(model, beta, x):
    """The fixed component of beta that the flow from x converges into: the
    one class of ``fixed_components`` that holds the flow limit's support."""
    supp = set(flow_limit(model, beta, x).support)
    owners = [c for c in fixed_components(model, beta) if supp <= set(c.indices)]
    assert len(owners) == 1, (model.name, beta, x)
    return owners[0]


# ------------------------------------------------------------------ ProjPoint


def test_projpoint_normalizes_and_canonicalizes_sign():
    p = P(-3, 0, -4)
    assert np.allclose(p.coords, [0.6, 0, 0.8])
    assert p.support == (0, 2)


def test_projpoint_drops_negligible_coordinates():
    p = ProjPoint([1.0, 1e-15, 0.0])
    assert p.support == (0,)
    assert np.allclose(p.coords, [1, 0, 0])


def test_projpoint_rejects_zero_vector():
    for vec in ([0.0, 0.0], [0.0, -0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e308, -np.inf]):
        with np.errstate(over="ignore"), pytest.raises(GmlInputError, match="cannot normalize"):
            ProjPoint(vec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projpoint_is_the_same_at_every_tiny_scale():
    """A vector whose squares underflow, to zero or into the subnormal range,
    is the point of the vector at unit scale, bit for bit: ``2**e * v`` for
    every exponent down to -1070 at which the scaling is exact."""
    rng = substream(23, 0)
    vectors = [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0], [-3.0, 0.0, 4.0], [1.0, 1e-13, 2.0]]
    vectors += [rng.standard_normal(d) * 2.0 ** rng.integers(-30, 30, d) for d in (2, 5, 8)]
    checked = 0
    for v in map(np.array, vectors):
        want = ProjPoint(v)
        for e in range(-1070, 0):
            x = np.ldexp(v, e)
            if not np.array_equal(np.ldexp(x, -e), v):
                continue  # the scaled vector lost bits: not the same point
            got = ProjPoint(x)
            assert got.coords.tobytes() == want.coords.tobytes() and got.support == want.support, e
            checked += 1
    assert checked > 6000


def test_projpoint_is_the_same_at_every_huge_scale():
    """A sum of squares that would overflow is scaled away before it is formed:
    an entry above about 1e154 gives the right point with no numpy warning."""
    v = np.array([2.0, -1.0, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ProjPoint(v * 1e200).coords.tobytes() == ProjPoint(v).coords.tobytes()
        assert ProjPoint([1e308, -1e308]).coords.tobytes() == ProjPoint([1, -1]).coords.tobytes()
        want = ProjPoint(v)
        for e in range(1, 1022):
            for w in (np.ldexp(v, e), np.ldexp(v, e).tolist()):
                got = ProjPoint(w)
                assert got.coords.tobytes() == want.coords.tobytes() and got.support == want.support, e


def test_projpoint_same_as_requires_equal_support():
    assert P(1, 1, 0).same_as(P(1, 1, 0))
    assert not P(1, 1, 0).same_as(P(1, 1, 1e-6))
    assert not P(1, 1, 0).same_as(P(1, 1 + 1e-6, 0))
    assert P(1, 1, 0).same_as(P(1, 1 + 1e-14, 0))


def test_projpoints_of_different_dimension_are_not_the_same():
    # equal supports, so only the dimension tells them apart
    assert not P(1, 0, 0).same_as(P(1, 0))
    assert not P(1, 0).same_as(P(1, 0, 0))
    assert not P(1, 1, 0).same_as(P(1, 1, 0, 0), tol=math.inf)


def test_model_requires_independent_subalgebra_rows():
    with pytest.raises(Exception):
        WeightedModel(name="bad", weights=[[0, 0], [1, 1]],
                      subalgebra=[[1, 1], [2, 2]])


# --------------------------------------------------------------- gradient map


def test_gradient_map_fixed_point_gives_weight(square_model):
    assert np.allclose(gradient_map(square_model, P(0, 0, 0, 1)), [1, 1])


def test_gradient_map_uniform_point(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    assert np.allclose(gradient_map(square_model, x), [0.5, 0.5])


def test_gradient_map_two_point_support(square_model):
    assert np.allclose(gradient_map(square_model, P(S2, 0, 0, S2)), [0.5, 0.5])


def test_gradient_image_lies_in_moment_polytope(model_pool):
    for model in model_pool[:20]:
        poly = model.moment_polytope
        rng = substream(301, model.num_coords * 131 + model.torus_dim)
        for _ in range(10):
            x = ProjPoint(rng.standard_normal(model.num_coords))
            assert poly.contains(gradient_map(model, x))


# ---------------------------------------------------------- fundamental field


def test_field_vanishes_at_coordinate_point(square_model):
    v = fundamental_field(square_model, [1, 0], P(1, 0, 0, 0))
    assert np.allclose(v, 0.0)


def test_field_hand_value(square_model):
    v = fundamental_field(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))
    assert np.allclose(v, [-0.25, 0.25, -0.25, 0.25])


def test_field_zero_direction(square_model):
    v = fundamental_field(square_model, [0, 0], P(0.5, 0.5, 0.5, 0.5))
    assert np.allclose(v, 0.0)


def test_field_orthogonal_to_base_point(model_pool):
    for model in model_pool[:15]:
        rng = substream(302, model.num_coords)
        x = ProjPoint(rng.standard_normal(model.num_coords))
        c = rng.standard_normal(model.subalgebra_dim)
        beta = c @ model.ortho_basis
        v = fundamental_field(model, beta, x)
        assert abs(float(v @ x.coords)) < 1e-12


def test_field_rejects_directions_outside_subalgebra():
    model = WeightedModel(name="line", weights=[[0, 0], [1, 0], [0, 1]],
                          subalgebra=[[1, 0]])
    with pytest.raises(BetaOutsideSubalgebra):
        fundamental_field(model, [0, 1], P(1, 1, 1))
    # a NaN residual must not pass the residual test
    with pytest.raises(BetaOutsideSubalgebra):
        model.validate_direction([1.0, math.nan])
    # nor an infinite entry, which raises before inf * 0 can warn
    with pytest.raises(BetaOutsideSubalgebra, match="finite"):
        model.validate_direction([math.inf, 0.0])


def _plane_model() -> WeightedModel:
    """A plane in a 3-torus algebra: a proper subalgebra."""
    return WeightedModel(name="plane", weights=[[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2],
                                                [2, 2, 2]], subalgebra=[[1, 0, 0], [0, 2, 2]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exp", [0, 100, 499, 500, 501, 700, 1000])
def test_direction_test_is_the_same_at_every_scale(exp):
    """Directions of norm at least 1 are tested relative to their size, so
    scaling by 2^exp keeps the verdict, past the size where squares overflow,
    and no numpy warning comes first."""
    model = _plane_model()
    # [0, 1, 1 + 2.5e-9] is off by 1.25e-9 * |beta|: scaled to a norm below 1,
    # the tolerance 1e-9 * max(1, |beta|) would pass it
    cases = [([0, 1, 1], True), ([3, -2, -2], True), ([1, 1, 1 + 1e-12], True),
             ([0, 1, -1], False), ([3, 1, 1 + 1e-6], False), ([1, 0, 1], False),
             ([0, 1, 1 + 2.5e-9], False)]
    for b, inside in cases:
        beta = np.ldexp(np.array(b, dtype=float), exp)
        if inside:
            assert model.validate_direction(beta).tobytes() == beta.tobytes(), b
        else:
            with pytest.raises(BetaOutsideSubalgebra, match="outside the subalgebra"):
                model.validate_direction(beta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_direction_in_a_proper_subalgebra_passes_without_a_warning():
    model = _plane_model()
    assert model.validate_direction([0, 1e200, 1e200]).tolist() == [0, 1e200, 1e200]
    x = ProjPoint(np.ones(5))
    got = composed_limit(model, [[1e200, 0, 0], [0, 1e200, 1e200]], x)
    assert got.same_as(composed_limit(model, None, x)) and got.support == (4,)
    # each row lies in the subalgebra; the rank rule (relative to the largest
    # singular value) then finds rows of sizes 1 and 1e200 dependent
    with pytest.raises(DependentBasis, match="linearly dependent"):
        composed_limit(model, [[1, 0, 0], [0, 1e200, 1e200]], x)
    with pytest.raises(BetaOutsideSubalgebra, match="outside the subalgebra"):
        flow_limit(model, [0, 1e200, -1e200], x)
    with pytest.raises(BetaOutsideSubalgebra, match="finite"):
        model.validate_direction([1e200, math.inf, 0])


@pytest.mark.parametrize("weights,subalgebra", [
    ([[0, 0], [math.inf, 0]], [[1, 0]]),
    ([[0, 0], [1, 0]], [[math.nan, 1]]),
], ids=["inf-weight", "nan-subalgebra"])
def test_model_rejects_non_finite_entries(weights, subalgebra):
    with pytest.raises(GmlInputError, match="must be finite"):
        WeightedModel(name="bad", weights=weights, subalgebra=subalgebra)


# ----------------------------------------------------------------------- flow


def test_flow_time_zero_is_identity(square_model):
    x = P(0.3, 0.5, 0.7, 0.4)
    assert flow(square_model, [1, 0], 0.0, x).same_as(x)


def test_flow_hand_value_at_log_two(square_model):
    y = flow(square_model, [1, 0], math.log(2), P(0.5, 0.5, 0.5, 0.5))
    assert np.allclose(y.coords, np.array([1, 2, 1, 2]) / math.sqrt(10), atol=1e-14)


def test_flow_large_time_approaches_limit(square_model):
    y = flow(square_model, [1, 0], 100.0, P(0.5, 0.5, 0.5, 0.5))
    assert np.allclose(y.coords, [0, S2, 0, S2], atol=1e-12)


def test_flow_survives_overflow_range(square_model):
    y = flow(square_model, [1, 0], 5000.0, P(0.5, 0.5, 0.5, 0.5))
    assert y.same_as(P(0, 1, 0, 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_with_overflowing_speeds_raises_without_a_numpy_warning():
    # <(2, 2, 2), (1, 1, 1e308)> overflows: the error names the speeds, and
    # no overflow or invalid-value warning comes first
    model = WeightedModel(name="cube-corner", weights=[[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2],
                                                       [2, 2, 2]], subalgebra=np.eye(3))
    with pytest.raises(GmlInputError, match=r"speeds \[0.0, 2.0, 2.0, inf, inf\] is not finite"):
        flow(model, [1, 1, 1e308], 1.0, P(1, 1, 1, 1, 1))


def _flow_guarded(model, beta, t, x):
    """``flow`` and ``finite_levels`` as they were before the overflow-bound
    rule: every speed formed under one ``np.errstate``."""
    try:
        beta = model.validate_direction(beta)
    except BetaOutsideSubalgebra as exc:
        return ((BetaOutsideSubalgebra, str(exc)),) * 2
    with np.errstate(over="ignore", invalid="ignore"):
        b = model.weights @ beta
        rows = flow_rows(b[None, :], t, x.coords)
    try:
        finite = finite_speeds(b).tobytes(), None
    except GmlInputError as exc:
        finite = GmlInputError, str(exc)
    try:
        y = ProjPoint(rows[0])
    except GmlInputError:
        return finite, (GmlInputError, f"flow time t = {t!r} times the speeds {b.tolist()} is not "
                                       "finite; use a smaller |t| or beta")
    return finite, (y.coords.tobytes(), y.support)


def test_flow_and_finite_levels_across_the_overflow_bound(model_pool):
    """Directions scaled by 2**e on both sides of the overflow-bound rule (and
    past the float range), flow times from 2**-1000 to 2**1000, and NaN and inf
    entries: ``flow`` and ``finite_levels`` give the bits or the error of the
    guarded computation, with no numpy warning.  A tiny t does not lift a
    huge direction's speeds under the bound."""
    sides = set()
    for m, model in enumerate([model_pool[0]] + model_pool[2:12]):
        rng = substream(311, m)
        x = ProjPoint(rng.standard_normal(model.num_coords))
        dirs = [rng.standard_normal(model.subalgebra_dim) @ model.ortho_basis]
        for beta in _edge_directions(model, rng, dirs, sides):
            for t in (2.0 ** -1000, -0.5, 3.0, 2.0 ** 40, -(2.0 ** 1000)):
                got = (_outcome(lambda: model.finite_levels(beta), "error"),
                       _outcome(lambda: flow(model, beta, t, x), "error"))
                assert got == _flow_guarded(model, beta, t, x), (model.name, beta, t)
    assert sides == {True, False}


def test_flow_group_law(model_pool):
    for model in model_pool[:12]:
        rng = substream(303, model.num_coords * 7 + model.torus_dim)
        x = ProjPoint(rng.standard_normal(model.num_coords))
        c = rng.standard_normal(model.subalgebra_dim)
        beta = c @ model.ortho_basis
        s, t = rng.uniform(-3, 3, size=2)
        once = flow(model, beta, s + t, x)
        twice = flow(model, beta, s, flow(model, beta, t, x))
        assert once.same_as(twice, tol=1e-10)


# ----------------------------------------------------------------- flow limit


def test_flow_limit_hand_value(square_model):
    lim = flow_limit(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))
    assert lim.support == (1, 3)
    assert np.allclose(lim.coords, [0, S2, 0, S2])


def test_flow_limit_fixed_point_is_identity(square_model):
    x = P(0, 1, 0, 1)  # level-1 component of beta=(1,0)
    assert flow_limit(square_model, [1, 0], x).same_as(x)


def test_flow_limit_second_stage(square_model):
    lim = flow_limit(square_model, [0, 1], P(0, 1, 0, 1))
    assert lim.same_as(P(0, 0, 0, 1))


def test_flow_limit_idempotent(model_pool):
    for model in model_pool[:15]:
        rng = substream(304, model.num_coords)
        x = ProjPoint(rng.standard_normal(model.num_coords))
        c = rng.standard_normal(model.subalgebra_dim)
        beta = c @ model.ortho_basis
        lim = flow_limit(model, beta, x)
        assert flow_limit(model, beta, lim).same_as(lim)


def test_flow_limit_scaling_equivariance(square_model):
    x = P(0.4, 0.3, 0.6, 0.2)
    for c in (0.25, 1.0, 7.0):
        a = flow_limit(square_model, [1, 0], x)
        b = flow_limit(square_model, [c, 0], x)
        assert a.same_as(b)
    parts_a = [c.indices for c in fixed_components(square_model, [1, 0])]
    parts_b = [c.indices for c in fixed_components(square_model, [3, 0])]
    assert parts_a == parts_b
    ua = limit_component(square_model, [1, 0], x)
    ub = limit_component(square_model, [5, 0], x)
    assert ua.indices == ub.indices


def test_flow_limit_ties_keep_whole_argmax_class(square_model):
    lim = flow_limit(square_model, [1, 1], P(0, 1, 1, 0))
    assert lim.support == (1, 2)
    assert np.allclose(lim.coords, [0, S2, S2, 0])


# ------------------------------------------------------------- composed limit


def test_composed_limit_two_steps(square_model):
    lim = composed_limit(square_model, None, P(0.5, 0.5, 0.5, 0.5))
    assert lim.same_as(P(0, 0, 0, 1))


def test_composed_limit_reversed_basis(square_model):
    lim = composed_limit(square_model, [[0, 1], [1, 0]], P(0.5, 0.5, 0.5, 0.5))
    assert lim.same_as(P(0, 0, 0, 1))


def test_composed_limit_fixes_joint_fixed_points(square_model):
    x = P(0, 0, 1, 0)
    assert composed_limit(square_model, None, x).same_as(x)


def test_composed_limit_renormalizes_after_each_basis_row():
    # the support shrinks to {0,1,2,3} along e1, then to {1,2} along e2;
    # each step renormalizes, and one restriction straight to {1,2} would
    # round the first coordinate differently
    model = WeightedModel(name="shrink", weights=[[1, 0], [1, 1], [1, 1], [1, 0], [0, 5]],
                          subalgebra=np.eye(2))
    x = P(0.58, 0.07, 0.61, 0.09, 0.53)
    lim = composed_limit(model, None, x)
    assert lim.support == (1, 2)
    assert lim.coords.tolist() == [0.0, 0.11400590984727986, 0.9934800715262959, 0.0, 0.0]
    straight = ProjPoint(np.where([False, True, True, False, False], x.coords, 0.0))
    assert not np.array_equal(lim.coords, straight.coords)


def test_composed_limit_rejects_dependent_directions(square_model):
    with pytest.raises(DependentBasis):
        composed_limit(square_model, [[1, 0], [2, 0]], P(1, 1, 1, 1))


def test_composed_limit_matches_lex_argmax_oracle(model_pool):
    for model in model_pool[:25]:
        rng = substream(305, model.num_coords * 13 + model.torus_dim)
        alphas = model.subalgebra
        for _ in range(8):
            x = ProjPoint(rng.standard_normal(model.num_coords))
            lim = composed_limit(model, None, x)
            want = lex_argmax_support(model.weights, alphas, x.support)
            assert lim.support == want


# ------------------------------------------------------------ perturbed limit


def test_perturbed_limit_below_threshold_matches_composition(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    lim = perturbed_limit(square_model, None, [0.5], x)
    assert lim.same_as(composed_limit(square_model, None, x))
    assert lim.same_as(P(0, 0, 0, 1))


def test_perturbed_limit_tie_at_threshold(square_model):
    x = P(0, 1, 1, 0)
    lim = perturbed_limit(square_model, None, [1.0], x)
    assert lim.support == (1, 2)
    assert not lim.same_as(composed_limit(square_model, None, x))
    assert composed_limit(square_model, None, x).same_as(P(0, 1, 0, 0))


def test_perturbed_limit_fixes_joint_fixed_points(square_model):
    x = P(1, 0, 0, 0)
    assert perturbed_limit(square_model, None, [0.123], x).same_as(x)


def test_perturbed_limit_rejects_nonpositive_steps(square_model):
    x = P(1, 1, 1, 1)
    with pytest.raises(NonPositiveEpsilon):
        perturbed_limit(square_model, None, [0.0], x)
    with pytest.raises(NonPositiveEpsilon):
        perturbed_limit(square_model, None, [-0.2], x)


@pytest.mark.parametrize("eps", [[[0.5]], np.full((1, 1), 0.5), "abc", [None], ["x"],
                                 [[0.5], [0.5, 0.25]], [True], math.inf, [math.inf],
                                 [0.5, 0.25]],
                         ids=["2-D", "column", "string", "None", "mixed", "ragged", "bool",
                              "inf", "inf-row", "count"])
def test_perturbed_limit_rejects_bad_eps_without_warning(square_model, eps):
    """The step-size contract of kernel_equality_rows, with one step size per
    later basis row; a numpy warning fails the test."""
    with pytest.raises(GmlInputError):
        perturbed_limit(square_model, None, eps, P(1, 1, 1, 1))


def _steps_outcome(eps, count):
    """check_step_sizes' float64 values, or the type and message it raises."""
    try:
        arr = check_step_sizes(eps, count)
    except GmlError as exc:
        return type(exc), str(exc)
    assert arr.dtype == np.float64 and arr.ndim == 1
    return arr.tobytes()


@pytest.mark.parametrize("values", [
    [0.5, 0.25], [math.nan, 0.5], [0.5, 0.0], [-0.0, 0.5], [0.5, -0.25], [0.5, math.inf],
    [math.inf, math.nan], [5e-324, 1e308], [1, 3]],
    ids=["ok", "nan", "zero", "minus-zero", "negative", "inf", "inf-nan", "extremes", "ints"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_step_sizes_fast_path_agrees_with_the_general_one(values):
    """A 1-D float64 array is taken as it is, with the outcome of the same
    values as a list, a tuple, an int array, a big-endian array or one by one
    as scalars, for the right count and a wrong one."""
    fast = np.array(values, dtype=float)
    general = [list(values), tuple(values), np.array(values, dtype=">f8")]
    if all(float(v).is_integer() for v in values):
        general.append(np.array(values, dtype=int))
    for count in (2, 3, None):
        want = _steps_outcome(fast, count)
        for eps in general:
            assert _steps_outcome(eps, count) == want, (eps, count)
    if isinstance(_steps_outcome(fast, 2), bytes):
        assert check_step_sizes(fast, 2) is fast
    for rows in (fast[None, :], [list(values)]):  # 2-D: the message repeats eps as given
        assert _steps_outcome(rows, None)[0] is GmlInputError
    for v in values:
        assert _steps_outcome(v, 1) == _steps_outcome(np.array([v], dtype=float), 1)


_BASIS_CALLS = {
    "composed_limit": lambda m, a: composed_limit(m, a, ProjPoint(np.ones(m.num_coords))),
    "perturbed_limit": lambda m, a: perturbed_limit(m, a, [0.5], ProjPoint(np.ones(m.num_coords))),
    "model_chain_threshold": model_chain_threshold,
    "deterministic_generic_direction": deterministic_generic_direction,
}


# two-row bases: of the whole algebra, and of a plane in a 3-torus algebra
_BASIS_MODELS = {
    "whole-algebra": ([[0, 0], [1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]]),
    "proper": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("func", _BASIS_CALLS)
@pytest.mark.parametrize("kind", _BASIS_MODELS)
def test_non_finite_basis_is_an_input_error(kind, func, bad):
    """Rejected before the rank test's SVD (LinAlgError) and before the
    subalgebra test (a numpy warning fails the test)."""
    model = WeightedModel(kind, *_BASIS_MODELS[kind])
    alphas = np.array(model.subalgebra)
    alphas[0, 0] = bad
    with pytest.raises(GmlInputError, match="finite"):
        _BASIS_CALLS[func](model, alphas)


def test_composition_identity_on_random_models(model_pool):
    for model in model_pool:
        delta = model_chain_threshold(model)
        assert delta > 0.0
        cap = min(delta, 1.0) * (1 - 1e-9)
        rng = substream(306, model.num_coords * 31 + len(model.name))
        for _ in range(20):
            x = ProjPoint(rng.standard_normal(model.num_coords))
            eps = rng.uniform(0, cap, size=model.subalgebra_dim - 1)
            eps = np.maximum(eps, 1e-12)
            a = perturbed_limit(model, None, eps, x) if eps.size else composed_limit(model, None, x)
            b = composed_limit(model, None, x)
            assert a.support == b.support
            assert a.same_as(b, tol=1e-12)


# ------------------------------------------- scalar limit path, bit for bit


def _outcome(call, warn: str):
    """The coords bytes and support of the point ``call`` returns (the bytes
    and None for an array), or the type and message of what it raises, with
    RuntimeWarnings set to ``warn``."""
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        try:
            p = call()
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            return type(exc), str(exc)
    if isinstance(p, np.ndarray):  # speeds
        return p.tobytes(), None
    return p.coords.tobytes(), p.support


def _landing_on(value: float, nrm: float):
    """An entry e with e / nrm == value exactly, or None if the floats next to
    value * nrm skip it."""
    e = value * nrm
    for _ in range(4):
        if e / nrm == value:
            return e
        e = math.nextafter(e, math.inf if e / nrm < value else -math.inf)
    return None


_TOL_EDGES = (SUPP_TOL, math.nextafter(SUPP_TOL, 0.0), math.nextafter(SUPP_TOL, 1.0))


def _point_vectors(rng, n: int) -> list:
    """Random vectors: full support, exact zeros, -0.0 entries (the first
    supported entry of either sign), and entries that the first
    normalization puts at SUPP_TOL or one ulp either side of it."""
    out = [rng.standard_normal(n) for _ in range(2)]
    for _ in range(2):
        z = rng.standard_normal(n)
        z[rng.random(n) < 0.5] = 0.0
        out.append(z if z.any() else np.eye(n)[0])
    for first in (1.0, -1.0):
        z = rng.standard_normal(n)
        z[0], z[1:][rng.random(n - 1) < 0.4] = -0.0, -0.0
        z[1] = first * (abs(z[1]) + 0.1)
        out.append(z)
    for edge in _TOL_EDGES:
        for sign in (1.0, -1.0):
            e = None
            while e is None:
                z = rng.standard_normal(n)
                j = int(rng.integers(n))
                z[j] = 0.0
                e = _landing_on(sign * edge, math.sqrt(z.dot(z)))
            z[j] = e
            out.append(z)
    return out


def _directions(model, rng, vectors) -> list:
    """Subalgebra directions: random ones, ones on which two coordinates of
    distinct projected weight tie within the level tolerance or just miss
    it, and a NaN and an overflowing one."""
    q, pw = model.ortho_basis, model.projected_weights
    dirs = [rng.standard_normal(model.subalgebra_dim) @ q for _ in range(2)]
    pairs = [(i, j) for i in range(model.num_coords) for j in range(i)
             if np.abs(pw[i] - pw[j]).max() > 1e-9]
    for i, j in pairs[:2]:
        g = pw[i] - pw[j]
        c = rng.standard_normal(model.subalgebra_dim)
        c -= (c @ g) / (g @ g) * g
        dirs += [(c + s * g / (g @ g)) @ q for s in (0.0, 4e-13, -4e-13, 3e-12)]
        z = rng.standard_normal(model.num_coords)
        z[i], z[j] = 2.0, -1.5
        vectors.append(z)
    return dirs + [np.full(model.torus_dim, math.nan), dirs[0] / np.abs(dirs[0]).max() * 1e308]


_SPEED_EDGE = 2.0 ** 1000  # speeds are formed unguarded while sum |beta| * bound stays below it


def _weight_bound(model) -> float:
    """The overflow-bound rule's model bound, max(1, largest row sum of |weights|)."""
    return max(1.0, float(np.abs(model.weights).sum(axis=1).max()))


def _scales_across(l1: float) -> list:
    """Exponents e for which ``2**e * l1`` lies on either side of the bound
    (two each), and 1023, the largest."""
    e0 = 1000 - math.frexp(l1)[1]  # 2**e0 * l1 < 2**1000 <= 2**(e0 + 1) * l1
    return [e0 - 1, e0, e0 + 1, e0 + 2, 1023]


def _edge_directions(model, rng, dirs, sides: set) -> list:
    """``dirs[:2]`` scaled by 2**e across the overflow-bound rule, recording in
    ``sides`` which side each finite one lies on, plus directions with a NaN,
    an inf or a -inf entry."""
    out = []
    for beta in dirs[:2]:
        for e in _scales_across(float(np.abs(beta).sum()) * _weight_bound(model)):
            with np.errstate(over="ignore"):
                b = np.ldexp(beta, e)
            if np.isfinite(b).all():
                sides.add(sum(map(abs, b.tolist())) * _weight_bound(model) < _SPEED_EDGE)
            out.append(b)
    for bad in (math.nan, math.inf, -math.inf):
        b = dirs[0].copy()
        b[int(rng.integers(b.size))] = bad
        out.append(b)
    return out


def _edge_steps(model, rng, sides: set) -> list:
    """Step sizes scaled by 2**e across the overflow-bound rule on the stored
    basis, recording in ``sides`` which side each lies on, plus rows with a
    NaN or an inf entry."""
    k = model.subalgebra_dim
    if k == 1:
        return []
    r = np.abs(model.subalgebra).sum(axis=1)
    u = rng.uniform(0.5, 1.0, k - 1)
    wb = _weight_bound(model)
    out = []
    for e in _scales_across(float(u @ r[1:]) * wb):
        eps = np.ldexp(u, e)
        with np.errstate(over="ignore"):
            sides.add(float(r[0] + eps @ r[1:]) * wb < _SPEED_EDGE)
        out.append(eps)
    for bad in (math.nan, math.inf):
        eps = u.copy()
        eps[int(rng.integers(k - 1))] = bad
        out.append(eps)
    return out


def test_scalar_limit_path_matches_its_array_form_bit_for_bit(model_pool):
    """ProjPoint, flow_limit, composed_limit and perturbed_limit give the coords
    bytes, support, or exception type and message of their array forms, with
    no RuntimeWarning.  The one exception: where non-finite speeds leave some
    coordinate above the array rule's cut, the array form returns a point and
    the one-row form raises the speeds error.  Directions, bases and step
    sizes run across the overflow-bound rule's edge (speeds formed without a
    guard below it) up to the float range, and with NaN and inf entries."""
    extra = [WeightedModel("proper-3", [[0, 0, 0, 0], [1, 0, 2, 0], [0, 1, 0, 1], [2, 1, 1, 3],
                                        [1, 1, 0, 2], [3, 0, 1, 1]],
                           [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 2]]),
             WeightedModel("cube-corner", [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [2, 2, 2]],
                           np.eye(3))]
    models = model_pool + extra
    kinds = {(m.subalgebra_dim, m.subalgebra_dim == m.torus_dim) for m in models}
    assert {k for k, _ in kinds} == {1, 2, 3, 4} and {w for _, w in kinds} == {False, True}
    speeds_error = r"the speeds \[.*\b(inf|nan)\b.*\] of beta are not finite; use a smaller beta"
    compared = 0
    edge_hits = set()
    dir_sides, step_sides = set(), set()

    def check(new, old):
        nonlocal compared
        got, want = _outcome(new, "error"), _outcome(old, "ignore")
        compared += 1
        if got != want:
            assert got[0] is GmlInputError and isinstance(want[0], bytes), (got, want)
            assert re.fullmatch(speeds_error, got[1]), got

    for m, model in enumerate(models):
        rng = substream(307, m)
        n, k = model.num_coords, model.subalgebra_dim
        vectors = _point_vectors(rng, n)
        dirs = _directions(model, rng, vectors)
        for v in vectors:
            first = v / math.sqrt(v.dot(v))
            edge_hits.update(abs(e) for e in first.tolist() if abs(e) in _TOL_EDGES)
            check(lambda: ProjPoint(v), lambda: ProjPointArray(v))
        points = [ProjPoint(v) for v in vectors]
        # the bound rule decides on the direction alone, so a few points suffice at its edge
        for beta, xs in ([(b, points) for b in dirs]
                         + [(b, points[:4]) for b in _edge_directions(model, rng, dirs, dir_sides)]):
            for x in xs:
                check(lambda: flow_limit(model, beta, x), lambda: flow_limit_array(model, beta, x))
        delta = model_chain_threshold(model)
        steps = [rng.uniform(0.0, min(delta, 1.0), k - 1), np.full(k - 1, 1e-14),
                 np.full(k - 1, 1e308)] + ([np.full(k - 1, delta)] if math.isfinite(delta) else [])
        edge = _edge_steps(model, rng, step_sides)
        # finite speeds only: where a row's speeds overflow, the array form passes
        # that row and raises the next row's speeds error
        rows_l1 = float(np.abs(model.subalgebra).sum(axis=1).max()) * _weight_bound(model)
        edge_bases = [np.ldexp(model.subalgebra, e) for e in _scales_across(rows_l1)[:4]]
        for j, x in enumerate(points):
            for alphas in [None, model.subalgebra[::-1]] + (edge_bases if j < 4 else []):
                check(lambda: composed_limit(model, alphas, x),
                      lambda: composed_limit_array(model, alphas, x))
            # as for the directions, a few points suffice at the edge; a given
            # basis bounds its direction from its own rows
            at_edge = edge if j < 4 else []
            for alphas, rows in ((None, steps + at_edge), (model.subalgebra[::-1], at_edge)):
                for eps in rows:
                    check(lambda: perturbed_limit(model, alphas, eps, x),
                          lambda: perturbed_limit_array(model, alphas, eps, x))
    assert compared >= 18000
    assert edge_hits == set(_TOL_EDGES)
    assert dir_sides == step_sides == {True, False}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda m, x: perturbed_limit(m, None, [0.5, 1e308], x),
    lambda m, x: flow_limit(m, [1, 1, 1e308], x),
    lambda m, x: flow_limit(m, [1e308, 1e308, 0], x),
    lambda m, x: composed_limit(m, [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]], x),
    lambda m, x: perturbed_limit(m, [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]], [0.5, 0.5], x),
], ids=["perturbed", "flow-limit-one-speed", "flow-limit-two-speeds", "composed-given-basis",
        "perturbed-given-basis"])
def test_limits_with_overflowing_speeds_raise_without_a_numpy_warning(call):
    model = WeightedModel(name="cube-corner", weights=[[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2],
                                                       [2, 2, 2]], subalgebra=np.eye(3))
    with pytest.raises(GmlInputError, match=r"the speeds \[.*inf.*\] of beta are not finite"):
        call(model, P(1, 1, 1, 1, 1))


# -------------------------------------------------------- model-level threshold


def test_model_chain_threshold_square_is_one(square_model):
    assert model_chain_threshold(square_model) == pytest.approx(1.0, abs=1e-12)
    delta, pairs = model_chain_threshold_witness(square_model)
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert (1, 2) in pairs


def test_stored_basis_witness_is_cached_and_equals_a_fresh_one(model_pool):
    """``random_weighted_model``'s acceptance test fills the stored basis's
    witness; it equals one computed afresh on a copy of the basis (the same
    delta and probe pairs), and a returned pair list is the caller's own."""
    for model in model_pool:
        if model.name.startswith("random"):
            assert "_chain_witness" in vars(model), model.name
        fresh = model_chain_threshold_witness(model, model.subalgebra.copy())
        for alphas in (None, model.subalgebra):
            got = model_chain_threshold_witness(model, alphas)
            assert got == fresh and type(got[1]) is list, model.name
            got[1].append((-1, -1))
            got[1].clear()
        assert model_chain_threshold_witness(model) == fresh


def test_only_the_stored_basis_comes_from_the_cache():
    model = WeightedModel("proper-3", [[0, 0, 0, 0], [1, 0, 2, 0], [0, 1, 0, 1], [2, 1, 1, 3]],
                          [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 2]])
    want = model_chain_threshold_witness(model)
    vars(model)["_chain_witness"] = (-1.0, ((7, 8),))  # a marker no computation returns
    for alphas in (None, model.subalgebra):
        assert model_chain_threshold_witness(model, alphas) == (-1.0, [(7, 8)])
    for alphas in (model.subalgebra.copy(), model.subalgebra.tolist(), model.subalgebra[::-1],
                   model.subalgebra * 2.0):
        got = model_chain_threshold_witness(model, alphas)
        assert got[0] != -1.0 and (7, 8) not in got[1]
    assert model_chain_threshold_witness(model, model.subalgebra.copy()) == want


def test_model_chain_threshold_applies_the_speeds_finite_rule():
    """w_0 - w_1 overflows: an input error without a numpy warning (pyproject
    makes RuntimeWarning an error), not a threshold of inf.  Without the two
    huge rows the threshold is 0.25."""
    weights = [[1e308, 0], [-1e308, 0], [0, 0], [4, -1]]
    model = WeightedModel(name="pair", weights=weights, subalgebra=[[0, 1], [1, 0]])
    with pytest.raises(GmlInputError, match="pair speeds of coordinates 0 and 1 are not finite"):
        model_chain_threshold_witness(model)
    rest = WeightedModel(name="rest", weights=weights[2:], subalgebra=[[0, 1], [1, 0]])
    assert model_chain_threshold(rest) == 0.25


def test_model_chain_threshold_certified_by_partition_grid(square_model):
    # below the threshold the perturbed direction induces the joint partition;
    # at the threshold indices 1 and 2 merge
    for eps in np.linspace(0.05, 0.95, 10):
        beta = np.array([1.0, 0.0]) + eps * np.array([0.0, 1.0])
        assert direction_certificate(square_model, beta)
    assert not direction_certificate(square_model, [1.0, 1.0])


def test_model_chain_threshold_equal_weights_unconstrained():
    model = WeightedModel(name="pair", weights=[[1, 0], [1, 0]],
                          subalgebra=[[1, 0], [0, 1]])
    assert model_chain_threshold(model) == math.inf


def test_model_chain_threshold_single_direction_basis():
    model = WeightedModel(name="line", weights=[[0, 0], [1, 0], [0, 1]],
                          subalgebra=[[1, 0]])
    assert model_chain_threshold(model) == math.inf


# ------------------------------------------------------------ fixed components


def test_fixed_components_generic_direction(square_model):
    comps = fixed_components(square_model, [1, 0])
    assert [(c.indices, c.level) for c in comps] == [((1, 3), 1.0), ((0, 2), 0.0)]
    assert [c.dim for c in comps] == [1, 1]


def test_fixed_components_zero_direction_fixes_everything(square_model):
    comps = fixed_components(square_model, [0, 0])
    assert [(c.indices, c.level) for c in comps] == [((0, 1, 2, 3), 0.0)]


def test_fixed_components_distinct_levels(square_model):
    comps = fixed_components(square_model, [1, 0.5])
    assert [c.level for c in comps] == [1.5, 1.0, 0.5, 0.0]
    assert all(len(c.indices) == 1 for c in comps)


def test_joint_fixed_set_square(square_model):
    comps = fixed_set_subalgebra(square_model)
    assert [c.indices for c in comps] == [(3,), (1,), (2,), (0,)]
    assert [tuple(c.level) for c in comps] == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_joint_fixed_set_repeated_weight(segment_model):
    comps = fixed_set_subalgebra(segment_model)
    assert [c.indices for c in comps] == [(0, 1), (2,)]
    assert comps[0].dim == 1


def test_joint_fixed_set_restricted_subalgebra():
    model = WeightedModel(name="restricted",
                          weights=[[0, 0], [1, 0], [0, 1], [1, 1]],
                          subalgebra=[[1, 0]])
    comps = fixed_set_subalgebra(model)
    assert [c.indices for c in comps] == [(1, 3), (0, 2)]
    beta_comps = fixed_components(model, [1, 0])
    assert [c.indices for c in beta_comps] == [c.indices for c in comps]


def test_joint_fixed_set_refines_every_direction(model_pool):
    for model in model_pool[:20]:
        joint = [set(c.indices) for c in fixed_set_subalgebra(model)]
        for alpha in model.subalgebra:
            for comp in fixed_components(model, alpha):
                cover = [j for j in joint if j & set(comp.indices)]
                assert set().union(*cover) == set(comp.indices)
                assert all(j <= set(comp.indices) for j in cover)


# ------------------------------------------------------------------ stabilizer


def test_stabilizer_trivial_for_full_support(square_model):
    st = stabilizer_algebra(square_model, P(0.5, 0.5, 0.5, 0.5))
    assert st.dim == 0


def test_stabilizer_full_for_coordinate_point(square_model):
    st = stabilizer_algebra(square_model, P(1, 0, 0, 0))
    assert st.dim == 2


def test_stabilizer_line_for_antidiagonal_pair(square_model):
    st = stabilizer_algebra(square_model, P(S2, 0, 0, S2))
    assert st.dim == 1
    direction = st.basis[:, 0]
    assert np.allclose(np.abs(direction), [S2, S2])
    assert abs(direction @ np.array([1, 1])) < 1e-12


def test_stabilizer_fixes_exactly_its_flows(square_model):
    x = P(S2, 0, 0, S2)
    inside = np.array([1.0, -1.0])  # annihilates the support's weight difference
    outside = np.array([1.0, 0.0])
    assert flow(square_model, inside, 2.0, x).same_as(x)
    assert not flow(square_model, outside, 2.0, x).same_as(x)


# ------------------------------------------------------------ generic directions


def test_deterministic_direction_square(square_model):
    beta, certified = deterministic_generic_direction(square_model)
    assert certified
    assert np.allclose(beta, [1.0, 0.5])
    levels = square_model.levels(beta)
    assert sorted(levels) == [0.0, 0.5, 1.0, 1.5]


def test_non_generic_direction_detected(square_model):
    assert not direction_certificate(square_model, [1, 1])
    assert direction_certificate(square_model, [1, 0.5])


def test_random_direction_certified(square_model, segment_model):
    for model in (square_model, segment_model):
        beta = certified_direction(model, seed=7)
        assert beta is not None and direction_certificate(model, beta)
        parts = [c.indices for c in fixed_components(model, beta)]
        joint = [c.indices for c in fixed_set_subalgebra(model)]
        assert sorted(parts) == sorted(joint)


def _same_draw_after(rng_a, rng_b) -> bool:
    return (rng_a.standard_normal(3).tobytes() == rng_b.standard_normal(3).tobytes()
            and rng_a.random() == rng_b.random())


@pytest.mark.parametrize("min_gap,attempts,seeds", [
    (0.05, 50, 20), (0.3, 400, 20), (0.75, 400, 5), (0.75, 3, 20), (1.5, 20, 20), (0.05, 0, 5)])
def test_gapped_direction_matches_one_draw_at_a_time(model_pool, min_gap, attempts, seeds):
    outcomes = []
    for m, model in enumerate(model_pool):
        for seed in range(seeds):
            rng, ref = substream(seed, m), substream(seed, m)
            got = gapped_direction(model, rng, min_gap=min_gap, attempts=attempts)
            want = first_accepted_loop(model, ref, attempts,
                                       lambda b: speeds_separated(model.weights, b, min_gap))
            assert (got is None) == (want is None), (model.name, seed)
            if want is not None:
                assert got.tobytes() == want.tobytes(), (model.name, seed)
            assert _same_draw_after(rng, ref), (model.name, seed)
            outcomes.append(want is not None)
    assert any(outcomes) == (attempts > 0)
    if min_gap >= 0.75:  # some pool models have no such direction, or rarely draw one
        assert not all(outcomes)


def test_gapped_direction_redraws_null_rows_like_unit_vector(segment_model):
    # unit_vector redraws a draw of norm <= 1e-12, so it is no attempt
    rows = substream(5, 0).standard_normal((60, 2))
    rows[[0, 3, 4, 9]] = 0.0
    outcomes = []
    for min_gap in (0.05, 0.95, 2.0):
        for attempts in (1, 2, 5, 20):
            rng, ref = ScriptedNormals(rows.ravel()), ScriptedNormals(rows.ravel())
            got = gapped_direction(segment_model, rng, min_gap=min_gap, attempts=attempts)
            want = first_accepted_loop(
                segment_model, ref, attempts,
                lambda b: speeds_separated(segment_model.weights, b, min_gap))
            assert (got is None) == (want is None) and rng.state == ref.state
            assert want is None or got.tobytes() == want.tobytes()
            outcomes.append((want is not None, ref.state))
    assert (True, 6) in outcomes and (False, 48) in outcomes  # a hit past a redraw; a miss


def test_generic_direction_matches_one_draw_at_a_time(model_pool):
    for model in model_pool:
        for seed in range(10):
            beta = certified_direction(model, seed=seed)
            want = first_accepted_loop(model, substream(seed, 0), 64,
                                       lambda b: direction_certificate(model, b))
            assert want is not None and beta.tobytes() == want.tobytes(), (model.name, seed)
    assert certified_direction(model_pool[0], seed=1, attempts=0) is None


def test_segment_model_certified_partition(segment_model):
    beta = certified_direction(segment_model, seed=3)
    assert beta is not None and direction_certificate(segment_model, beta)
    parts = sorted(c.indices for c in fixed_components(segment_model, beta))
    assert parts == [(0, 1), (2,)]


def test_certified_fraction_is_one_on_canonical_models(square_model, segment_model):
    assert certified_fraction(square_model, 10_000, seed=11) == 1.0
    assert certified_fraction(segment_model, 10_000, seed=11) == 1.0


# ---------------------------------------------------------- unstable components


def test_unstable_component_uniform_point(square_model):
    comp = limit_component(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))
    assert comp.indices == (1, 3)


def test_unstable_component_of_fixed_point_is_its_component(square_model):
    comp = limit_component(square_model, [1, 0], P(0, 1, 0, 1))
    assert comp.indices == (1, 3)
    assert comp.level == 1.0


def test_unstable_component_low_level(square_model):
    comp = limit_component(square_model, [1, 0], P(S2, 0, S2, 0))
    assert comp.indices == (0, 2)
    assert comp.level == 0.0


def test_unstable_components_partition_points(model_pool):
    for model in model_pool[:10]:
        rng = substream(307, model.num_coords)
        c = rng.standard_normal(model.subalgebra_dim)
        beta = c @ model.ortho_basis
        comps = fixed_components(model, beta)
        for _ in range(10):
            x = ProjPoint(rng.standard_normal(model.num_coords))
            owner = limit_component(model, beta, x)
            assert sum(owner.indices == c.indices for c in comps) == 1


# ------------------------------------------------------------------- convexity


def test_moment_polytope_square(square_model):
    assert moment_polytope_check(square_model, substream(3, 0))
    assert square_model.moment_polytope.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_moment_polytope_segment(segment_model):
    assert moment_polytope_check(segment_model, substream(3, 0))
    assert segment_model.moment_polytope.vertices.tolist() == [[0, 0], [1, 0]]


def test_moment_polytope_single_weight():
    model = WeightedModel(name="point", weights=[[2, 2], [2, 2]],
                          subalgebra=[[1, 0], [0, 1]])
    assert moment_polytope_check(model, substream(3, 0))
    assert model.moment_polytope.vertices.tolist() == [[2, 2]]


def test_orbit_hull_full_support(square_model):
    assert orbit_hull_check(square_model, P(0.5, 0.5, 0.5, 0.5), substream(5, 0))


def test_orbit_hull_fixed_orbit(square_model):
    assert orbit_hull_check(square_model, P(0, 0, 1, 0), substream(5, 0))


def test_orbit_hull_segment_orbit(square_model):
    assert orbit_hull_check(square_model, P(S2, S2, 0, 0), substream(5, 0))


def test_supporting_directions_attain_their_vertices(model_pool):
    """The flow limit along each vertex's supporting direction lands on that
    vertex within HULL_TOL, as orbit_hull_check assumes when it tries that one
    direction per vertex: on the pool, the bipyramid at 2^-10 to 2^16, and
    random supports (a one-point hull's zero direction leaves x where it is)."""
    models = model_pool + [make_bipyramid_model(2.0 ** k) for k in range(-10, 17, 2)]
    vertices = 0
    for m, model in enumerate(models):
        for s in range(4):
            x = _random_point(substream(820 + s, m), model.num_coords)
            poly = Polytope(model.projected_weights[x.support_mask])
            for v, u in zip(poly.vertices, poly.supporting_directions):
                image = gradient_map(model, flow_limit(model, u @ model.ortho_basis, x))
                assert np.abs(image - v).max() <= HULL_TOL, (model.name, s, v)
                vertices += 1
    assert vertices >= 700


def _philox_state(rng) -> dict:
    """``bit_generator.state`` of a Philox generator with its arrays as lists."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


def test_orbit_hull_check_matches_one_draw_per_sample(model_pool):
    """Block draws and the cached moment polytope leave the outcome and the
    generator's state as one generator call per sample on a fresh hull."""
    supports = []
    for m, model in enumerate(model_pool):
        for s in range(6):
            rng = substream(800 + s, m)
            x = _random_point(rng, model.num_coords)
            ref = substream(800 + s, m)
            ref.bit_generator.state = rng.bit_generator.state
            got = orbit_hull_check(model, x, rng)
            assert got == orbit_hull_loop(model, x, _ORBIT_SAMPLES, ref), (model.name, s)
            assert _philox_state(rng) == _philox_state(ref), (model.name, s)
            supports.append(len(x.support) == model.num_coords)
    assert len(supports) >= 300 and any(supports) and not all(supports)


def test_orbit_hull_check_matches_one_draw_per_sample_at_large_spread():
    """Weights times 2^k give sampled speed spreads past 8, where the interior
    flow time drops below 1: the outcome and the generator's state are still
    those of one generator call per sample, and every check passes."""
    for k in (4, 6, 10, 16):
        model = make_bipyramid_model(2.0 ** k)
        for s in range(10):
            rng = substream(810 + k, s)
            x = _random_point(rng, model.num_coords)
            ref = substream(810 + k, s)
            ref.bit_generator.state = rng.bit_generator.state
            assert orbit_hull_check(model, x, rng), (k, s)
            assert orbit_hull_loop(model, x, _ORBIT_SAMPLES, ref), (k, s)
            assert _philox_state(rng) == _philox_state(ref), (k, s)


# ------------------------------------------------------------- random models


def test_random_models_have_positive_threshold(model_pool):
    for model in model_pool:
        assert model_chain_threshold(model) > 0.0
        assert model.num_coords <= 10
        assert model.torus_dim <= 4
        assert np.allclose(model.weights, np.round(model.weights))


# ------------------------------------------------------------ joint partition


def test_vector_partition_groups_rows_a_sort_interleaves():
    # rows 0 and 2 agree to 1 ulp-scale noise (8.9e-16) in the first column;
    # row 1 shares row 0's first column exactly, so a lexicographic sort puts
    # it between them and a neighbour-only comparison splits the class
    a = 0.70710678118654702
    rows = np.array([[a, 2.0], [a, 3.0], [a + 8.9e-16, 2.0]])
    assert np.lexsort(np.flipud(rows.T)).tolist() == [0, 1, 2]
    assert _vector_labels(rows).tolist() == [0, 1, 0]


def test_joint_labels_index_the_joint_partition(model_pool):
    for model in model_pool:
        labels = model.joint_labels
        assert labels.tolist() == [next(c for c, g in enumerate(model.joint_partition) if i in g)
                                   for i in range(model.num_coords)]


def test_interleaved_joint_class_is_certified():
    # coordinates 5 and 6 project to the same weight only up to 8.9e-16, and
    # coordinate 2 sorts between them; every generic direction is certified
    model = WeightedModel(
        name="interleaved",
        weights=[[1, 3, 2], [-3, 3, 3], [3, -3, 2], [-3, -2, 0], [2, 0, 2],
                 [3, -2, 2], [-2, -2, -3], [2, -1, 1], [2, -1, -3], [-2, 2, 0]],
        subalgebra=[[1, 0, -1], [0, -2, 0]])
    assert (5, 6) in model.joint_partition
    assert len(model.joint_partition) == 9
    assert certified_fraction(model, 2000, seed=1) == 1.0
    rep = run_campaign_model(model, "theorem1", trials=50, seed=103)
    assert rep.passes == 50


# ------------------------------------------------ kernels and their wrappers


def test_certify_levels_matches_scalar_certificate(model_pool):
    for model in model_pool[:12]:
        rng = substream(31, 0)
        u = rng.standard_normal((40, model.subalgebra_dim))
        u[:5] = 0.0
        u[:5, 0] = 1.0  # basis directions: often not certified
        betas = u @ model.ortho_basis
        batch = certify_levels(model, betas @ model.weights.T)
        assert batch.tolist() == [direction_certificate(model, b) for b in betas]


def test_certify_levels_rejects_split_joint_class(segment_model):
    # coordinates 0 and 1 share a weight; speeds that separate them (not
    # from any subalgebra direction) refine the joint partition
    levels = np.array([[1.0, 0.5, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert certify_levels(segment_model, levels).tolist() == [False, True, False]


def test_moment_polytope_is_cached(square_model):
    assert square_model.moment_polytope is square_model.moment_polytope


def test_model_entry_points_check_point_length(square_model):
    short = P(1, 1)
    with pytest.raises(GmlInputError):
        flow_limit(square_model, [1, 0], short)
    with pytest.raises(GmlInputError):
        composed_limit(square_model, None, short)
    with pytest.raises(GmlInputError):
        perturbed_limit(square_model, None, [0.5], short)
    with pytest.raises(GmlInputError):
        flow(square_model, [1, 0], 1.0, short)
    with pytest.raises(GmlInputError):
        gradient_map(square_model, short)
    with pytest.raises(GmlInputError):
        stabilizer_algebra(square_model, short)
