"""ODE integration, numeric limits, finite-difference and linearization checks."""

import io
import math

import numpy as np
import pytest

from gml import (
    ProjPoint,
    Trajectory,
    WeightedModel,
    flow,
    flow_limit,
    gapped_direction,
    integrate_flow,
    numeric_limit,
)
from gml.errors import HorizonExceeded, NotAFixedPoint, StepTooLarge
from gml.numerics import (
    gradient_fd_check,
    linearization_at,
    monotonicity_check,
    numeric_limit_details,
)
from gml.rng import substream

from _oracles import direct_flow

S2 = 1 / math.sqrt(2)
BETA = [1.0, 0.5]


def P(*coords) -> ProjPoint:
    return ProjPoint(list(coords))


# ----------------------------------------------------------------- integration


def test_integrate_zero_time_returns_start(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    traj = integrate_flow(square_model, [1, 0], x, 0.0)
    assert len(traj.points) == 1
    assert traj.points[0].same_as(x)
    assert traj.times.tolist() == [0.0]


def test_integrate_matches_closed_form(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    traj = integrate_flow(square_model, [1, 0], x, 10.0, dt=0.01)
    want = direct_flow(square_model.weights, [1, 0], 10.0, x.coords)
    assert np.linalg.norm(traj.points[-1].coords - np.abs(want)) < 1e-6


def test_integrate_fixed_point_is_constant(square_model):
    x = P(0, 1, 0, 0)
    traj = integrate_flow(square_model, [1, 0], x, 2.0, dt=0.05)
    for p in traj.points:
        assert np.linalg.norm(p.coords - x.coords) <= 1e-12


def test_integrate_rejects_oversized_steps(square_model):
    with pytest.raises(StepTooLarge):
        integrate_flow(square_model, [3.0, 1.5], P(1, 1, 1, 1), 10.0, dt=5.0)


def test_integrate_convergence_is_fourth_order(square_model):
    x = P(0.5, 0.5, 0.5, 0.5)
    exact = flow(square_model, BETA, 2.0, x)
    errs = []
    for dt in (0.1, 0.05):
        traj = integrate_flow(square_model, BETA, x, 2.0, dt=dt)
        errs.append(float(np.linalg.norm(traj.points[-1].coords - exact.coords)))
    assert errs[0] / errs[1] >= 14.0


def test_trajectory_rejects_length_mismatch(square_model):
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), points=[P(1, 0, 0, 0)],
                   beta=np.array([1.0, 0.0]), model=square_model)


def test_trajectory_csv_round_trip(square_model):
    traj = integrate_flow(square_model, BETA, P(0.5, 0.5, 0.5, 0.5), 1.0, dt=0.25)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x_0,x_1,x_2,x_3,mu_beta,field_norm"
    assert len(lines) == 1 + len(traj.points)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert np.allclose(first[1:5], traj.points[0].coords)
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
    rev = Trajectory(times=fwd.times, points=fwd.points[::-1],
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
