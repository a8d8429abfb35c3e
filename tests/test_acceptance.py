"""Acceptance gate: one test per top-level criterion, with timing budgets.

Each test prints a single PASS line (visible under ``pytest -s``) naming
the criterion, the workload, and the elapsed time.
"""

import json
import math
import re
import time

import numpy as np

from gml import (
    ProjPoint,
    certified_fraction,
    deterministic_generic_direction,
    direction_certificate,
    flow,
    flow_limit,
    gapped_direction,
    integrate_flow,
    moment_polytope_check,
    numeric_limit,
    orbit_hull_check,
    perturbed_kernel_equality,
    random_commuting_family,
)
from gml.campaigns import CampaignConfig, resolve_tolerances, run_campaign, run_campaign_model
from gml.model import model_chain_threshold
from gml.numerics import gradient_fd_check, linearization_at, monotonicity_check
from gml.rng import open_uniform, substream
from gml.spectral import delta_threshold_witness


TOLS = resolve_tolerances({})


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})", flush=True)


def test_criterion_1_kernel_perturbation_suite():
    """1000 random commuting pairs: equality below the threshold, jump at it."""
    start = time.perf_counter()
    pairs = 0
    checks = 0
    probes = 0
    for trial in range(1000):
        rng = substream(2026, trial)
        dim = int(rng.integers(2, 13))
        alpha, beta = random_commuting_family(rng, dim).members
        delta, witness = delta_threshold_witness(alpha, beta)
        pairs += 1
        cap = delta * (1 - 1e-9) if math.isfinite(delta) else 10.0
        for _ in range(10):
            eps = open_uniform(rng, 0.0, cap)
            rep = perturbed_kernel_equality(alpha, beta, eps, tol=TOLS["holds_tol"])
            assert rep.holds, (trial, eps, rep.dims)
            assert rep.dims[0] == rep.dims[1]
            checks += 1
        if math.isfinite(delta) and any(a * b < 0 for a, b in witness):
            rep = perturbed_kernel_equality(alpha, beta, delta, tol=TOLS["holds_tol"])
            assert rep.dims[0] > rep.dims[1], (trial, delta, rep.dims)
            probes += 1
    elapsed = time.perf_counter() - start
    assert pairs == 1000 and checks == 10_000
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s (budget 10s)"
    _report("1 kernel-perturbation",
            f"{pairs} pairs, {checks} eps checks, {probes} jump probes, {elapsed:.2f}s")


def test_criterion_2_generic_direction_density(model_pool):
    """Certified fraction exactly 1.0 over 10,000 directions per model."""
    start = time.perf_counter()
    for k, model in enumerate(model_pool):
        frac = certified_fraction(model, 10_000, seed=9000 + k)
        assert frac == 1.0, (model.name, frac)
        beta, certified = deterministic_generic_direction(model)
        assert certified, model.name
        assert direction_certificate(model, beta)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s (budget 30s)"
    _report("2 generic-direction-density",
            f"{len(model_pool)} models x 10000 directions, all certified, {elapsed:.2f}s")


def test_criterion_3_composition_identity(model_pool, tmp_path):
    """perturbed limit == composed limit on 1000 points per model; tie probe fails."""
    start = time.perf_counter()
    total = 0
    for model in model_pool:
        rep = run_campaign_model(model, "theorem2", trials=1000, seed=42,
                                 tolerances=TOLS)
        assert rep.passes == 1000, (model.name, rep.failures[:1])
        total += rep.passes
    # tightness probe on the square model: the tie point fails at eps = delta
    square = model_pool[0]
    rep = run_campaign_model(square, "theorem2", trials=10, seed=42,
                             tolerances=TOLS, probe_tightness=True)
    assert len(rep.failures) == 1
    probe_point = np.array(rep.failures[0]["inputs"]["point"], dtype=float)
    s2 = 1 / math.sqrt(2)
    assert np.allclose(np.sort(probe_point), [0, 0, s2, s2], atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (budget 30s)"
    _report("3 composition-identity",
            f"{total} point trials across {len(model_pool)} models + tie probe, {elapsed:.2f}s")


def test_criterion_4_convexity(model_pool):
    """Moment polytope and orbit-hull checks with hull_tol = 1e-9."""
    start = time.perf_counter()
    orbit_checks = 0
    for k, model in enumerate(model_pool):
        poly, holds = moment_polytope_check(model, 32, seed=400 + k, hull_tol=1e-9)
        assert holds, model.name
        # vertex attainment, re-derived: every vertex is a projected weight,
        # i.e. the image of a coordinate fixed point
        pw = model.projected_weights
        for v in poly.vertices:
            assert np.min(np.max(np.abs(pw - v), axis=1)) <= 1e-12
        rng = substream(500, k)
        probes = [ProjPoint(rng.standard_normal(model.num_coords)),
                  ProjPoint.coordinate(int(rng.integers(model.num_coords)),
                                       model.num_coords)]
        if model.num_coords >= 2:
            z = np.zeros(model.num_coords)
            z[:2] = 1.0
            probes.append(ProjPoint(z))
        for x in probes:
            assert orbit_hull_check(model, x, 16, seed=600 + k, hull_tol=1e-9), \
                (model.name, x.support)
            orbit_checks += 1
    elapsed = time.perf_counter() - start
    _report("4 convexity",
            f"{len(model_pool)} polytopes, {orbit_checks} orbit hulls, {elapsed:.2f}s")


def test_criterion_5_numerics(model_pool):
    """Numeric limits, integrator order, FD gradient order, linearization."""
    start = time.perf_counter()
    square = model_pool[0]
    trajectories = []

    # (a) numeric limit agrees with the closed form on 1000 gapped instances
    agreed = 0
    k = 0
    while agreed < 1000:
        rng = substream(7000, k)
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
        assert got.support == want.support, (model.name, k)
        assert got.same_as(want, tol=TOLS["numeric_tol"])
        agreed += 1

    # (b) RK4 order by dt-halving regression against the closed-form flow
    x0 = ProjPoint([0.5, 0.5, 0.5, 0.5])
    beta = [1.0, 0.5]
    exact = flow(square, beta, 2.0, x0)
    dts = (0.2, 0.1, 0.05, 0.025)
    errors = []
    for dt in dts:
        traj = integrate_flow(square, beta, x0, 2.0, dt=dt)
        trajectories.append(traj)
        errors.append(float(np.linalg.norm(ProjPoint(traj.coords[-1]).coords - exact.coords)))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    assert slope >= 3.8, f"RK4 regression order {slope:.3f}"

    # (c) finite-difference gradient residual is second order in h
    measured = 0
    for j, model in enumerate(model_pool[:12]):
        rng = substream(7100, j)
        x = ProjPoint(rng.standard_normal(model.num_coords))
        beta_m = gapped_direction(model, rng, min_gap=0.3, attempts=400)
        if beta_m is None:
            continue
        r1 = gradient_fd_check(model, beta_m, x, h=1e-3)
        r2 = gradient_fd_check(model, beta_m, x, h=5e-4)
        if r2 < 1e-12:  # below roundoff floor, order not measurable
            continue
        ratio = r1 / r2
        assert 3.5 <= ratio <= 4.5, (model.name, ratio)
        measured += 1
    assert measured >= 5

    # (d) linearization eigenvalues at coordinate points match weight gaps
    for j, model in enumerate(model_pool[:10]):
        rng = substream(7200, j)
        beta_m = gapped_direction(model, rng, min_gap=0.3, attempts=400)
        if beta_m is None:
            continue
        levels = model.levels(beta_m)
        for idx in range(model.num_coords):
            lin = linearization_at(model, beta_m, ProjPoint.coordinate(idx, model.num_coords))
            want = np.sort([levels[i] - levels[idx]
                            for i in range(model.num_coords) if i != idx])
            assert np.allclose(np.sort(lin.eigenvalues), want, atol=1e-6)

    # (e) monotonicity on every trajectory integrated in this suite
    for j in range(20):
        rng = substream(7300, j)
        x = ProjPoint(rng.standard_normal(4))
        trajectories.append(integrate_flow(square, beta, x, 3.0, dt=0.05))
    assert all(monotonicity_check(t) for t in trajectories)

    elapsed = time.perf_counter() - start
    _report("5 numerics",
            f"{agreed} limit agreements, rk4 order {slope:.2f}, "
            f"{measured} fd ratios, {len(trajectories)} monotone trajectories, {elapsed:.1f}s")


def test_criterion_6_reproducibility(square_file, tmp_path):
    """Identical (config, seed) produce byte-identical reports except wall_time."""
    start = time.perf_counter()
    texts = []
    for k in range(2):
        out = tmp_path / f"rep-{k}.json"
        config = CampaignConfig(model_path=str(square_file), campaign="theorem2",
                                trials=250, seed=31337, output_path=str(out))
        run_campaign(config)
        texts.append(out.read_text())
    stripped = [re.sub(r'^\s*"wall_time":.*$', "", t, flags=re.M) for t in texts]
    assert stripped[0] == stripped[1]
    assert texts[0] != ""
    # and the wall_time key is the only difference
    a, b = (json.loads(t) for t in texts)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b
    elapsed = time.perf_counter() - start
    _report("6 reproducibility", f"two 250-trial runs byte-identical, {elapsed:.2f}s")
