"""ODE integration, numeric limits, finite-difference and linearization checks."""

import io
import math

import numpy as np
import pytest

from gml import (
    ProjPoint,
    Trajectory,
    WeightedModel,
    direction_certificate,
    flow,
    flow_limit,
    fundamental_field,
    gapped_direction,
    integrate_flow,
    numeric_limit,
)
from gml.errors import GmlInputError, HorizonExceeded, NotAFixedPoint, StepTooLarge
from gml.model import fixed_components
from gml.numerics import (
    _rk4_step,
    _tangent_frame,
    gradient_fd_check,
    linearization_at,
    monotonicity_check,
    numeric_limit_details,
    numeric_limit_rows,
    rk4_rows,
)
from gml.rng import substream, unit_vector

from _oracles import (
    direct_flow,
    field_norms_loop,
    gradient_fd_loop,
    gram_schmidt_frame,
    linearization_loop,
    monotonicity_loop,
    mu_values_loop,
    numeric_limit_loop,
    rk4_step_loop,
    speed_classes_loop,
)

S2 = 1 / math.sqrt(2)
BETA = [1.0, 0.5]


def P(*coords) -> ProjPoint:
    return ProjPoint(list(coords))


# ----------------------------------------------------------------- integration


def test_integrate_zero_time_returns_start(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    traj = integrate_flow(square_model, [1, 0], x, 0.0)
    assert traj.coords.shape == (1, 4)
    assert ProjPoint(traj.coords[0]).same_as(x)
    assert traj.times.tolist() == [0.0]


def test_integrate_matches_closed_form(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    traj = integrate_flow(square_model, [1, 0], x, 10.0, dt=0.01)
    want = direct_flow(square_model.weights, [1, 0], 10.0, x.coords)
    assert np.linalg.norm(ProjPoint(traj.coords[-1]).coords - np.abs(want)) < 1e-6


def test_integrate_fixed_point_is_constant(square_model):
    x = P(0, 1, 0, 0)
    traj = integrate_flow(square_model, [1, 0], x, 2.0, dt=0.05)
    assert np.linalg.norm(traj.coords - x.coords, axis=1).max() <= 1e-12


def test_integrate_rejects_oversized_steps(square_model):
    with pytest.raises(StepTooLarge):
        integrate_flow(square_model, [3.0, 1.5], P(1, 1, 1, 1), 10.0, dt=5.0)


def test_a_step_that_overflows_is_too_large(square_model):
    """Speeds of 1e150 overflow inside the first RK4 step, whose norm is then
    NaN: the renormalization guard rejects it (a NaN is not within 10%), and
    no numpy warning escapes."""
    x, beta = P(1, 1, 1, 1), [1e150, 0.0]
    with pytest.raises(StepTooLarge, match="^the step is not finite"):
        integrate_flow(square_model, beta, x, 0.05, dt=0.01)
    with pytest.raises(StepTooLarge, match="^the step is not finite"):
        numeric_limit(square_model, beta, x)
    # two moving rows step as a stack, and the second one fails
    levels = np.array([square_model.levels(BETA), square_model.levels(beta)])
    with pytest.raises(StepTooLarge, match="^row 1: the step is not finite") as err:
        numeric_limit_rows(levels, np.full((2, 4), 0.5))
    assert err.value.row == 1


def test_integrate_convergence_is_fourth_order(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    exact = flow(square_model, BETA, 2.0, x)
    errs = []
    for dt in (0.1, 0.05):
        traj = integrate_flow(square_model, BETA, x, 2.0, dt=dt)
        errs.append(float(np.linalg.norm(ProjPoint(traj.coords[-1]).coords - exact.coords)))
    assert errs[0] / errs[1] >= 14.0


def test_trajectory_rows_are_the_integrator_steps(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    traj = integrate_flow(square_model, BETA, x, 1.0, dt=0.25)
    levels = square_model.levels(BETA)
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.coords[0].tobytes() == x.coords.tobytes()
    for k in range(4):
        assert traj.coords[k + 1].tobytes() == _rk4_step(levels, traj.coords[k], 0.25).tobytes()


def test_trajectory_rejects_length_mismatch(square_model):
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), coords=P(1, 0, 0, 0).coords[None, :],
                   beta=np.array([1.0, 0.0]), model=square_model)


def test_trajectory_csv_round_trip(square_model):
    traj = integrate_flow(square_model, BETA, P(0.5, 0.5, 0.5, 0.5), 1.0, dt=0.25)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x_0,x_1,x_2,x_3,mu_beta,field_norm"
    assert len(lines) == 1 + len(traj.coords)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert np.allclose(first[1:5], traj.coords[0])
    # mu values in the file are nondecreasing
    mus = [float(line.split(",")[-2]) for line in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))


# -------------------------------------------------------------- numeric limits


def test_numeric_limit_matches_exact_limit(square_model):
    got = numeric_limit(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))
    want = flow_limit(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))
    assert got.support == want.support == (1, 3)
    assert got.same_as(want, tol=1e-8)


def test_numeric_limit_fixed_point(square_model):
    x = P(0, 0, 1, 0)
    assert numeric_limit(square_model, [1, 0], x).same_as(x)


def test_numeric_limit_distinct_levels(square_model):
    got = numeric_limit(square_model, BETA, P(0.5, 0.5, 0.5, 0.5))
    assert got.same_as(P(0, 0, 0, 1))


def test_numeric_limit_reports_exhausted_horizon():
    slow = WeightedModel(name="tiny-gap", weights=[[0], [1], [1.0001]],
                         subalgebra=[[1.0]])
    with pytest.raises(HorizonExceeded) as err:
        numeric_limit(slow, [1.0], P(1, 1, 1), tol=1e-10, t_max=8.0)
    assert err.value.t_final == pytest.approx(8.0)
    assert err.value.residual > 1e-10


def test_numeric_limit_details_reports_raw_terminal_state(square_model):
    snapped, raw, t_final, residual = numeric_limit_details(
        square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5), tol=1e-6)
    assert snapped.support == (1, 3)
    assert np.linalg.norm(raw) == pytest.approx(1.0, abs=1e-9)
    assert residual < 1e-6
    assert t_final > 0


def test_numeric_limit_agrees_on_random_gapped_instances(model_pool):
    agreements = 0
    k = 0
    while agreements < 60 and k < 400:
        rng = substream(401, k)
        k += 1
        model = model_pool[int(rng.integers(0, len(model_pool)))]
        if len(model.joint_partition) == 1:
            continue  # every speed ties: no flow to integrate
        beta = gapped_direction(model, rng, min_gap=0.75, attempts=400)
        if beta is None:
            continue
        x = ProjPoint(rng.standard_normal(model.num_coords))
        got = numeric_limit(model, beta, x, tol=1e-5, dt=0.05)
        want = flow_limit(model, beta, x)
        assert got.support == want.support
        assert got.same_as(want, tol=1e-6)
        agreements += 1
    assert agreements == 60


# ----------------------------------------------------------- gradient fd check


def test_fd_residual_small_at_fixed_point(square_model):
    assert gradient_fd_check(square_model, [1, 0], P(0, 0, 0, 1), h=1e-4) < 1e-7


def test_fd_residual_small_generic_point(square_model):
    res = gradient_fd_check(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5), h=1e-5)
    assert res < 1e-8


def test_fd_residual_zero_direction(square_model):
    res = gradient_fd_check(square_model, [0, 0], P(0.5, 0.5, 0.5, 0.5), h=1e-4)
    assert res < 1e-12


def test_fd_residual_second_order(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    r1 = gradient_fd_check(square_model, BETA, x, h=1e-3)
    r2 = gradient_fd_check(square_model, BETA, x, h=5e-4)
    assert 3.5 <= r1 / r2 <= 4.5


# ---------------------------------------------------------------- monotonicity


def test_monotonicity_on_integrated_trajectories(square_model):
    for seed in range(5):
        rng = substream(402, seed)
        x = ProjPoint(rng.standard_normal(4))
        traj = integrate_flow(square_model, BETA, x, 3.0, dt=0.05)
        assert monotonicity_check(traj)


def test_monotonicity_constant_at_fixed_point(square_model):
    traj = integrate_flow(square_model, [1, 0], P(0, 0, 0, 1), 1.0, dt=0.1)
    assert monotonicity_check(traj)


def test_monotonicity_rejects_decreasing_sequence(square_model):
    # reversed gradient trajectory: mu values strictly decrease
    fwd = integrate_flow(square_model, BETA, P(0.5, 0.5, 0.5, 0.5), 2.0, dt=0.1)
    rev = Trajectory(times=fwd.times, coords=fwd.coords[::-1],
                     beta=fwd.beta, model=square_model)
    assert not monotonicity_check(rev)


# --------------------------------------------------------------- linearization


def test_linearization_eigenvalues_at_saddle(square_model):
    lin = linearization_at(square_model, [1, 0], P(0, 1, 0, 0))
    assert np.allclose(np.sort(lin.eigenvalues), [-1, -1, 0], atol=1e-6)


def test_linearization_zero_direction(square_model):
    lin = linearization_at(square_model, [0, 0], P(0, 1, 0, 0))
    assert np.allclose(lin.matrix, 0.0, atol=1e-9)


def test_linearization_all_negative_at_top(square_model):
    lin = linearization_at(square_model, BETA, P(0, 0, 0, 1))
    assert np.allclose(np.sort(lin.eigenvalues), [-1.5, -1.0, -0.5], atol=1e-6)


def test_linearization_rejects_moving_points(square_model):
    with pytest.raises(NotAFixedPoint):
        linearization_at(square_model, [1, 0], P(0.5, 0.5, 0.5, 0.5))


def test_linearization_matches_weight_differences(model_pool):
    for model in model_pool[:10]:
        rng = substream(403, model.num_coords * 17 + model.torus_dim)
        beta = gapped_direction(model, rng, min_gap=0.3, attempts=400)
        if beta is None:
            continue
        levels = model.levels(beta)
        for j in range(model.num_coords):
            lin = linearization_at(model, beta, ProjPoint.coordinate(j, model.num_coords))
            want = np.sort([levels[i] - levels[j]
                            for i in range(model.num_coords) if i != j])
            assert np.allclose(np.sort(lin.eigenvalues), want, atol=1e-6)


def test_eigenvalue_signs_predict_flow_direction(square_model):
    # at e_1 with beta=(1,0.5): +0.5 along e_3, -1 along e_0, -0.5 along e_2
    theta = 0.05
    escape = ProjPoint([0, math.cos(theta), 0, math.sin(theta)])
    lim = numeric_limit(square_model, BETA, escape)
    assert not lim.same_as(P(0, 1, 0, 0))
    assert lim.same_as(P(0, 0, 0, 1))
    back = ProjPoint([math.sin(theta), math.cos(theta), 0, 0])
    lim = numeric_limit(square_model, BETA, back)
    assert lim.same_as(P(0, 1, 0, 0))


# ----------------------------------------------------------------- bad inputs

_X = P(0.7, 0.7, 0.1, 0.1)
_INPUT_CALLS = {
    # the time cap is kept short where it is not the value under test
    ("numeric_limit", "dt"): lambda m, v: numeric_limit(m, BETA, _X, dt=v, t_max=8.0),
    ("numeric_limit", "tol"): lambda m, v: numeric_limit(m, BETA, _X, tol=v, t_max=8.0),
    ("numeric_limit", "t_max"): lambda m, v: numeric_limit(m, BETA, _X, t_max=v),
    ("numeric_limit_details", "dt"):
        lambda m, v: numeric_limit_details(m, BETA, _X, dt=v, t_max=8.0),
    ("numeric_limit_details", "tol"):
        lambda m, v: numeric_limit_details(m, BETA, _X, tol=v, t_max=8.0),
    ("numeric_limit_details", "t_max"): lambda m, v: numeric_limit_details(m, BETA, _X, t_max=v),
    ("integrate_flow", "dt"): lambda m, v: integrate_flow(m, BETA, _X, 1.0, dt=v),
    ("integrate_flow", "t_end"): lambda m, v: integrate_flow(m, BETA, _X, v),
    ("gradient_fd_check", "h"): lambda m, v: gradient_fd_check(m, BETA, _X, h=v),
    ("linearization_at", "h"): lambda m, v: linearization_at(m, BETA, P(0, 0, 0, 1), h=v),
}
_BAD_VALUES = {"zero": 0.0, "negative": -0.5, "nan": math.nan, "inf": math.inf,
               "bool": True, "str": "0.5", "none": None}
# a zero-time trajectory is valid: it holds the start point
_BAD_INPUTS = [(func, arg, bad) for func, arg in _INPUT_CALLS for bad in _BAD_VALUES
               if (arg, bad) != ("t_end", "zero")]


@pytest.mark.parametrize("func, arg, bad", _BAD_INPUTS, ids=str)
def test_numerics_rejects_bad_step_sizes_and_tolerances(square_model, func, arg, bad):
    with pytest.raises(GmlInputError, match=arg):
        _INPUT_CALLS[func, arg](square_model, _BAD_VALUES[bad])


# every call that takes the speeds of a direction under the speeds-finite rule
_SPEED_CALLS = {
    "fundamental_field": lambda m, b: fundamental_field(m, b, _X),
    "integrate_flow": lambda m, b: integrate_flow(m, b, _X, 1.0),
    "gradient_fd_check": lambda m, b: gradient_fd_check(m, b, _X),
    "direction_certificate": direction_certificate,
    "linearization_at": lambda m, b: linearization_at(m, b, P(0, 0, 0, 1)),
    "fixed_components": fixed_components,
    "numeric_limit": lambda m, b: numeric_limit(m, b, _X),
}
_BAD_DIRECTIONS = {"nan": [math.nan, 0.0], "inf": [math.inf, 0.0], "overflow": [1e308, 1e308]}


@pytest.mark.parametrize("bad", _BAD_DIRECTIONS)
@pytest.mark.parametrize("func", _SPEED_CALLS)
def test_non_finite_speeds_are_an_input_error(square_model, func, bad):
    """The square's subalgebra is the whole torus algebra, so
    validate_direction passes these directions as they are; the speeds-finite
    rule rejects them, and no numpy warning escapes on the way."""
    with pytest.raises(GmlInputError, match="^direction is too large or not finite"):
        _SPEED_CALLS[func](square_model, _BAD_DIRECTIONS[bad])


# ------------------------------------------- array forms against loop references
#
# Tolerances, fixed before comparing: values agree within 1e-12 relative,
# with an absolute floor of 1e-12 * scale, scale = max(1, max |level|).  A
# central difference of values of size scale carries rounding of order
# eps * scale / h, so finite-difference outputs agree within 1e-12 * scale / h.


def _scale(levels) -> float:
    return max(1.0, float(np.abs(levels).max()))


def _reference_cases(model_pool):
    """(model, beta, x) on every third pool model: a gapped direction when
    one is drawn (else any unit direction), a random point, a coordinate
    point and a point of the top fixed component."""
    for j, model in enumerate(model_pool[::3]):
        rng = substream(404, j)
        beta = gapped_direction(model, rng)
        if beta is None:
            beta = model.ortho_basis.T @ unit_vector(rng, model.subalgebra_dim)
        top = fixed_components(model, beta)[0].indices
        z = np.zeros(model.num_coords)
        z[list(top)] = rng.uniform(0.5, 1.0, len(top))
        for x in (ProjPoint(rng.standard_normal(model.num_coords)),
                  ProjPoint.coordinate(int(rng.integers(model.num_coords)), model.num_coords),
                  ProjPoint(z)):
            yield model, beta, x


def test_trajectory_values_match_the_per_point_loops(model_pool):
    for model, beta, x in _reference_cases(model_pool):
        traj = integrate_flow(model, beta, x, 3.0, dt=0.05)
        levels = model.levels(beta)
        # the loops read each sample's ProjPoint coordinates
        pts = [ProjPoint(row).coords for row in traj.coords]
        mus, norms = mu_values_loop(levels, pts), field_norms_loop(levels, pts)
        tol = dict(rtol=1e-12, atol=1e-12 * _scale(levels))
        np.testing.assert_allclose(traj.mu_values(), mus, **tol)
        np.testing.assert_allclose(traj.field_norms(), norms, **tol)
        assert monotonicity_check(traj) == monotonicity_loop(traj.times, mus, norms)


def test_monotonicity_matches_the_loop_on_random_trajectories(model_pool):
    rng = substream(405, 0)
    decisions = []
    for j in range(400):
        model = model_pool[j % len(model_pool)]
        beta = model.ortho_basis.T @ unit_vector(rng, model.subalgebra_dim)
        levels = model.levels(beta)
        t = int(rng.integers(1, 10))
        times = np.cumsum(rng.uniform(0.0, 0.2, t)) * (1e-18 if j % 7 == 0 else 1.0)
        coords = rng.standard_normal((t, model.num_coords))
        if j % 3:  # a fixed point and a repeated sample, then sorted by value
            coords[rng.integers(t)] = np.eye(model.num_coords)[rng.integers(model.num_coords)]
            coords[rng.integers(t)] = coords[rng.integers(t)]
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        if j % 3:
            coords = coords[np.argsort(mu_values_loop(levels, coords), kind="stable")]
        if j % 5 == 0:
            coords[rng.integers(t)] = np.nan
        traj = Trajectory(times=times, coords=coords, beta=beta, model=model)
        want = monotonicity_loop(times, mu_values_loop(levels, coords),
                                 field_norms_loop(levels, coords))
        assert monotonicity_check(traj) == want, j
        decisions.append(want)
    assert 50 <= sum(decisions) <= 350


def test_tangent_frame_spans_the_gram_schmidt_tangent_space(model_pool):
    for _, _, x in _reference_cases(model_pool):
        frame, gs = _tangent_frame(x.coords), gram_schmidt_frame(x.coords)
        assert frame.shape == gs.shape == (x.dim - 1, x.dim)
        np.testing.assert_allclose(frame @ frame.T, np.eye(x.dim - 1), rtol=0, atol=1e-14)
        assert np.abs(frame @ x.coords).max() <= 1e-14
        np.testing.assert_allclose(frame.T @ frame, gs.T @ gs, rtol=0, atol=1e-14)


def test_gradient_fd_check_matches_the_frame_loop(model_pool):
    for model, beta, x in _reference_cases(model_pool):
        levels = model.levels(beta)
        got, want = [], []
        for h in (1e-3, 5e-4, 1e-5):
            got.append(gradient_fd_check(model, beta, x, h=h))
            want.append(gradient_fd_loop(levels, x.coords, h))
            assert abs(got[-1] - want[-1]) <= 1e-12 * _scale(levels) / h
        # the numerics campaign's decision on the order of the residual
        flags = [r1 > 1e-12 and not 3.5 <= r1 / max(r2, 1e-18) <= 4.5
                 for r1, r2 in (got[:2], want[:2])]
        assert flags[0] == flags[1]


def test_linearization_matches_the_frame_loop(model_pool):
    h = 1e-6
    fixed = 0
    for model, beta, x in _reference_cases(model_pool):
        levels = model.levels(beta)
        want = linearization_loop(levels, x.coords, h)
        try:
            lin = linearization_at(model, beta, x, h=h)
        except NotAFixedPoint:
            assert want is None
            continue
        assert want is not None
        frame, jac = want
        tol = 1e-12 * _scale(levels) / h
        np.testing.assert_allclose(lin.eigenvalues, np.linalg.eigvalsh(jac), rtol=0, atol=tol)
        # the frames differ; the operator on the tangent space does not
        np.testing.assert_allclose(lin.frame.T @ lin.matrix @ lin.frame,
                                   frame.T @ jac @ frame, rtol=0, atol=tol)
        fixed += 1
    assert fixed >= 30


def _limit_outcome(levels, x, tol, dt, t_max):
    """numeric_limit_loop's result, or the error it raises."""
    try:
        return numeric_limit_loop(levels, x, tol, dt, t_max)
    except (StepTooLarge, HorizonExceeded) as exc:
        return exc


def _start_points(model, levels, rng):
    """Unit start points: random, support-restricted (a random mask) and near
    a random speed class (its coordinates plus 1e-6 noise everywhere)."""
    n = model.num_coords
    mask = rng.random(n) < 0.6
    mask[int(rng.integers(n))] = True
    classes = speed_classes_loop(levels)
    near = 1e-6 * rng.standard_normal(n)
    near[classes[int(rng.integers(len(classes)))]] += rng.uniform(0.5, 1.0)
    pts = np.array([rng.standard_normal(n), np.where(mask, rng.standard_normal(n), 0.0), near])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# (tol, dt, t_max) per pool model in turn: tol 1e-6 and 1e-5, dt 0.01 and
# 0.05 (dt = 0.01 on a quarter of the models, since the loop reference costs
# about 30 us a step), and two settings that raise on some rows
_LIMIT_SETTINGS = [(1e-6, 0.05, 1e4), (1e-5, 0.01, 1e4), (1e-5, 0.05, 1e4), (1e-6, 0.05, 3.0),
                   (1e-6, 0.01, 1e4), (1e-5, 0.05, 1e4), (1e-5, 4.0, 1e4), (1e-6, 0.05, 1e4)]


def test_numeric_limit_rows_match_the_loop(model_pool):
    """Every row of the batch takes the steps the one-point loop takes, bit
    for bit; an input the loop rejects makes the batch raise the same error,
    naming a row whose loop raises it, and a single point gets the loop's
    message unchanged."""
    errors = set()
    for j, model in enumerate(model_pool):
        if len(model.joint_partition) < 2:
            continue
        rng = substream(406, j)
        beta = gapped_direction(model, rng, min_gap=0.3, attempts=400)
        if beta is None:
            beta = model.ortho_basis.T @ unit_vector(rng, model.subalgebra_dim)
        levels = model.levels(beta)
        X = _start_points(model, levels, rng)
        tol, dt, t_max = _LIMIT_SETTINGS[j % len(_LIMIT_SETTINGS)]
        for x, row in zip(X, rk4_rows(levels, X, 0.05)):
            assert row.tobytes() == rk4_step_loop(levels, x, 0.05).tobytes() == \
                _rk4_step(levels, x, 0.05).tobytes()
        want = [_limit_outcome(levels, x, tol, dt, t_max) for x in X]
        raised = [w for w in want if isinstance(w, Exception)]
        if not raised:
            snapped, raw, t_final, residual = numeric_limit_rows(levels, X, tol, dt, t_max)
            for i, (y, x, t, res) in enumerate(want):
                assert snapped[i].tobytes() == y.tobytes(), (model.name, i)
                assert raw[i].tobytes() == x.tobytes(), (model.name, i)
                assert (t_final[i], residual[i]) == (t, res), (model.name, i)
            continue
        with pytest.raises((StepTooLarge, HorizonExceeded)) as err:
            numeric_limit_rows(levels, X, tol, dt, t_max)
        named = want[err.value.row]
        assert type(named) is type(err.value) and str(err.value) == f"row {err.value.row}: {named}"
        errors.add(type(named))
        x = X[want.index(raised[0])]
        with pytest.raises(type(raised[0])) as one:
            numeric_limit_rows(levels, x, tol, dt, t_max)
        assert one.value.row is None and str(one.value) == str(raised[0])
    assert errors == {StepTooLarge, HorizonExceeded}


def test_numeric_limit_rows_edge_rows(square_model):
    levels = square_model.levels(BETA)
    out = numeric_limit_rows(levels, np.zeros((0, 4)))
    assert [a.shape for a in out] == [(0, 4), (0, 4), (0,), (0,)]
    # row 0 is fixed, so row 1 steps alone, as one point, and is still named
    with pytest.raises(StepTooLarge, match="^row 1: renormalization") as err:
        numeric_limit_rows(levels, np.array([[0, 0, 0, 1], [0.5, 0.5, 0.5, 0.5]]), dt=5.0)
    assert err.value.row == 1
    with pytest.raises(GmlInputError, match="^row 1: direction is too large"):
        numeric_limit_rows(np.array([levels, [1e308, np.inf, 0, 1]]), np.full((2, 4), 0.5))
    with pytest.raises(GmlInputError, match="^direction is too large"):
        numeric_limit_rows(np.array([1e308, np.inf, 0, 1]), np.full(4, 0.5))

