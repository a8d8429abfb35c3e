"""Verification campaigns over models and operator families.

Each campaign runs seeded trials, counts passes, and records every
failure with enough detail (seed, trial index, inputs, expected vs
actual) to replay it.  Reports serialize with a fixed key order so two
runs with the same (campaign, model, trials, seed) are byte-identical
except wall_time.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from . import numerics as num
from . import spectral
from .errors import GmlInputError, UnknownCampaign, check_integer
from .hull import HULL_TOL
from .model import gapped_direction as _gapped_direction  # the name benchmarks/tracer.py wraps
from .rng import open_uniform_array, substream, trial_streams, unit_draws, unit_vector
from .serialization import jsonify, load_model
from .spectral import chain_threshold_witness, family_kernel_rows, random_commuting_family

CAMPAIGNS = ("theorem1", "theorem2", "lemma-linearization", "convexity", "numerics")


@dataclass(eq=False)
class VerificationReport:
    campaign: str
    model_name: str
    trials: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    thresholds_used: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def __post_init__(self):
        if self.passes + len(self.failures) != self.trials:
            raise ValueError("passes + failures must equal trials")

    def to_obj(self) -> dict:
        return {
            "campaign": self.campaign,
            "model": self.model_name,
            "trials": self.trials,
            "passes": self.passes,
            "failures": jsonify(self.failures),
            "thresholds_used": jsonify(self.thresholds_used),
            "wall_time": self.wall_time,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"


def _failure(seed: int, trial: int, inputs, expected, actual) -> dict:
    return {"seed": seed, "trial_index": trial, "inputs": jsonify(inputs),
            "expected": jsonify(expected), "actual": jsonify(actual)}


def _random_point(rng: np.random.Generator, dim: int) -> mdl.ProjPoint:
    """Random point; half the time restricted to a random support subset.
    The draws are numpy's; the masking and the size test run on Python
    floats, which is faster on a few values and changes no bit."""
    while True:
        z = rng.standard_normal(dim).tolist()
        if rng.random() < 0.5:
            mask = [u < 0.6 for u in rng.random(dim).tolist()]
            if not any(mask):
                mask[int(rng.integers(dim))] = True
            z = [v if kept else 0.0 for v, kept in zip(z, mask)]
        if max(map(abs, z)) > 1e-6:
            return mdl.ProjPoint(z)


def _campaign_theorem1(model, trials, seed, probe_tightness):
    d = model.subalgebra_dim
    draws = np.empty((trials, d))
    for k, rng in trial_streams(seed, trials):
        rng.standard_normal(out=draws[k])
    rows, kept = unit_draws(draws)
    us = np.empty_like(draws)
    us[kept] = rows
    for k in np.flatnonzero(~kept):  # unit_vector redraws a null draw from the trial's stream
        us[k] = unit_vector(substream(seed, int(k)), d)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite speeds raise below
        levels = us @ model.ortho_basis @ model.weights.T
    certified = mdl.certify_levels(model, mdl.finite_speeds(levels, row="trial"))
    failures = [_failure(seed, int(k), {"beta": model.ortho_basis.T @ us[k]},
                         {"certified": True}, {"certified": False})
                for k in np.flatnonzero(~certified)]
    thresholds = {"level_tol": "1e-12 * max(1, |levels|)"}
    return failures, thresholds, trials


_EQ_TOL = 1e-12  # coordinate agreement between the composed and perturbed limits
_EPS_CAP = 1.0   # sampling cap when the threshold is +infinity


def _campaign_theorem2(model, trials, seed, probe_tightness):
    alphas = model.subalgebra
    delta, probe_pairs = mdl.model_chain_threshold_witness(model, alphas)
    if delta == 0.0:
        raise GmlInputError("model admits no uniform step-size box for its stored basis")
    cap = min(delta, _EPS_CAP) * (1.0 - 1e-9)
    n_eps = model.subalgebra_dim - 1
    failures = []
    if n_eps == 0:
        # one basis row: the perturbed direction is alphas[0] itself, so every
        # trial compares a flow limit with itself and passes, finite speeds given
        model.finite_levels(alphas[0])
    else:
        for k in range(trials):
            rng = substream(seed, k)
            x = _random_point(rng, model.num_coords)
            eps = open_uniform_array(rng, 0.0, cap, n_eps)
            expected = mdl.composed_limit(model, alphas, x)
            actual = mdl.perturbed_limit(model, alphas, eps, x)
            if not actual.same_as(expected, tol=_EQ_TOL):
                failures.append(_failure(
                    seed, k, {"point": x.coords, "eps": eps},
                    {"support": expected.support, "coords": expected.coords},
                    {"support": actual.support, "coords": actual.coords}))
    probes = probe_pairs if probe_tightness else []
    for i, j in probes:
        z = np.zeros(model.num_coords)
        z[i] = z[j] = 1.0
        x = mdl.ProjPoint(z)
        eps = np.full(n_eps, delta)
        expected = mdl.composed_limit(model, alphas, x)
        actual = mdl.perturbed_limit(model, alphas, eps, x)
        # a probe that matches is no boundary case, and passes
        if not actual.same_as(expected, tol=_EQ_TOL):
            failures.append(_failure(
                seed, -1, {"probe": True, "pair": [i, j], "point": x.coords, "eps": eps},
                {"support": expected.support}, {"support": actual.support}))
    thresholds = {"chain_threshold": delta, "eps_cap": cap, "eq_tol": _EQ_TOL}
    return failures, thresholds, trials + len(probes)


def _campaign_lemma(model, trials, seed, probe_tightness):
    # operator-level campaign; the model only scopes the report
    n_eps = 10
    failures = []
    for k, rng in trial_streams(seed, trials):
        dim = int(rng.integers(2, 13))
        fam = random_commuting_family(rng, dim, members=2)
        alpha, beta = fam.members
        # the family is checked on construction: no entry point checks it again
        delta, witnesses = chain_threshold_witness(fam)
        cap = (delta * (1.0 - 1e-9)) if math.isfinite(delta) else 10.0
        eps = open_uniform_array(rng, 0.0, cap, n_eps)
        # tightness probe: at eps = delta the kernel must strictly jump
        probe = math.isfinite(delta) and any(a * b < 0 for a, b in witnesses)
        rows = np.append(eps, delta) if probe else eps
        holds, dims, _ = family_kernel_rows(fam, rows)
        detail = None
        if not holds[:n_eps].all():
            i = int(np.argmin(holds[:n_eps]))  # the first failing eps
            detail = {"eps": eps[i], "dims": dims[i]}
        elif probe and not dims[n_eps, 0] > dims[n_eps, 1]:
            detail = {"eps": delta, "dims": dims[n_eps], "probe": True}
        if detail is not None:
            failures.append(_failure(seed, k,
                                     {"alpha": alpha.entries, "beta": beta.entries,
                                      "delta": delta, **detail},
                                     {"holds": True}, {"holds": False, **detail}))
    thresholds = {"holds_tol": spectral.HOLDS_TOL, "eps_count": n_eps}
    return failures, thresholds, trials


def _campaign_convexity(model, trials, seed, probe_tightness):
    failures = []
    for k, rng in trial_streams(seed, trials):
        _, mp_ok = mdl.moment_polytope_check(model, 32, rng)
        x = _random_point(rng, model.num_coords)
        orbit_ok = mdl.orbit_hull_check(model, x, 16, rng)
        if not (mp_ok and orbit_ok):
            failures.append(_failure(seed, k, {"point": x.coords},
                                     {"polytope": True, "orbit": True},
                                     {"polytope": mp_ok, "orbit": orbit_ok}))
    thresholds = {"hull_tol": HULL_TOL}
    return failures, thresholds, trials


def _order_ratio(model, beta, x, h) -> float | None:
    """RK4 order gate: max-abs errors at t = 2 against the closed-form flow
    for the step h and h/2, halving h up to five times.  None (pass) at the
    first pair whose ratio reaches 14 or whose coarse error is at most
    1e-13; else the last ratio measured."""
    closed = mdl.flow(model, beta, 2.0, x).coords

    def err(h):
        end = num.integrate_flow(model, beta, x, 2.0, dt=h).coords[-1]
        return float(np.abs(mdl.ProjPoint(end).coords - closed).max())

    err_c = err(h)
    for _ in range(5):
        if err_c <= 1e-13:
            return None
        err_f = err(h / 2)
        ratio = err_c / max(err_f, 1e-17)
        if ratio >= 14.0:
            return None
        h, err_c = h / 2, err_f
    return ratio


_NUMERIC_TOL = 1e-6      # field-norm target of the numeric limits
_NUMERIC_EQ_TOL = 1e-8   # agreement between numeric and closed-form limits


def _campaign_numerics(model, trials, seed, probe_tightness):
    drawn = []  # (trial, beta, point) of every trial with a gapped direction
    for k, rng in trial_streams(seed, trials):
        beta = _gapped_direction(model, rng)
        if beta is not None:
            drawn.append((k, beta, _random_point(rng, model.num_coords)))
    betas = np.array([beta for _, beta, _ in drawn]).reshape(-1, model.torus_dim)
    coords = np.array([x.coords for _, _, x in drawn]).reshape(-1, model.num_coords)
    # stacked products evaluate each row as model.levels does, bit for bit
    levels = (model.weights @ betas[:, :, None])[:, :, 0]
    snapped = num.numeric_limit_rows(levels, coords, tol=_NUMERIC_TOL,
                                     dt=num.spread_step(levels, num._DT_CAP))[0]
    closed = np.where(mdl.limit_support(levels, coords != 0.0), coords, 0.0)
    failures = []
    for (k, beta, x), lv, limit, kept in zip(drawn, levels, snapped, closed):
        detail = {}
        expected, actual = mdl.ProjPoint(kept), mdl.ProjPoint(limit)
        if not actual.same_as(expected, tol=_NUMERIC_EQ_TOL):
            detail["limit"] = {"expected": expected.support, "actual": actual.support}
        traj = num.integrate_flow(model, beta, x, t_end=3.0,
                                  dt=num.spread_step(lv, num._DT_CAP_MONOTONE))
        if not num.monotonicity_check(traj):
            detail["monotone"] = False
        ratio = _order_ratio(model, beta, x, num.spread_step(lv, num._DT_CAP_ORDER))
        if ratio is not None:
            detail["order_ratio"] = ratio
        r1 = num.gradient_fd_check(model, beta, x, h=1e-3)
        r2 = num.gradient_fd_check(model, beta, x, h=5e-4)
        if r1 > 1e-12 and not (3.5 <= r1 / max(r2, 1e-18) <= 4.5):
            detail["fd_ratio"] = r1 / max(r2, 1e-18)
        if detail:
            failures.append(_failure(seed, k, {"beta": beta, "point": x.coords},
                                     {"all_checks": True}, detail))
    # a trial without a gapped direction tests nothing and counts as a pass
    thresholds = {"numeric_tol": _NUMERIC_TOL, "numeric_eq_tol": _NUMERIC_EQ_TOL}
    return failures, thresholds, trials


_CAMPAIGN_FUNCS = {
    "theorem1": _campaign_theorem1,
    "theorem2": _campaign_theorem2,
    "lemma-linearization": _campaign_lemma,
    "convexity": _campaign_convexity,
    "numerics": _campaign_numerics,
}


def run_campaign_model(model: mdl.WeightedModel, campaign: str, trials: int, seed: int,
                       probe_tightness: bool = False) -> VerificationReport:
    """Run one campaign against an in-memory model: at least one trial, and
    a seed that keys trial streams (``check_integer``)."""
    if campaign not in _CAMPAIGN_FUNCS:
        raise UnknownCampaign(f"unknown campaign '{campaign}'; choose from {CAMPAIGNS}")
    trials, seed = check_integer(trials, "trials", 1), check_integer(seed, "seed")
    start = time.perf_counter()
    failures, thresholds, total = _CAMPAIGN_FUNCS[campaign](
        model, trials, seed, probe_tightness)
    wall = time.perf_counter() - start
    return VerificationReport(campaign=campaign, model_name=model.name, trials=total,
                              passes=total - len(failures), failures=failures,
                              thresholds_used=thresholds, wall_time=wall)


def describe_model(source) -> dict:
    """Human-oriented summary of a model file or in-memory model."""
    model = source if isinstance(source, mdl.WeightedModel) else load_model(source)
    comps = mdl.fixed_set_subalgebra(model)
    return {
        "name": model.name,
        "num_coords": model.num_coords,
        "torus_dim": model.torus_dim,
        "subalgebra_dim": model.subalgebra_dim,
        "weights": jsonify(model.weights),
        "subalgebra": jsonify(model.subalgebra),
        "joint_fixed_components": [
            {"indices": list(c.indices), "mu_value": jsonify(list(c.level)), "dim": c.dim}
            for c in comps
        ],
        "moment_polytope_vertices": jsonify(model.moment_polytope.vertices),
        "chain_threshold": jsonify(mdl.model_chain_threshold(model)),
    }
