"""Verification campaigns over models and operator families.

Each campaign runs seeded trials, counts passes, and records every
failure with enough detail (seed, trial index, inputs, expected vs
actual) to replay it.  Reports serialize with a fixed key order so two
runs with the same (config, seed) are byte-identical except wall_time.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as mdl
from . import numerics as num
from .errors import GmlInputError, ReportIoError, UnknownCampaign
from .model import gapped_direction as _gapped_direction  # the name benchmarks/tracer.py wraps
from .rng import open_uniform, substream, trial_streams, unit_vector
from .serialization import jsonify, load_model
from .spectral import (
    delta_threshold_witness,
    kernel_equality_rows,
    random_commuting_family,
)

CAMPAIGNS = ("theorem1", "theorem2", "lemma-linearization", "convexity", "numerics")

ENV_DEFAULT_TOL = "GML_DEFAULT_TOL"

_DEFAULT_TOLS = {
    "eq_tol": 1e-12,      # coordinate agreement between closed-form limits
    "hull_tol": 1e-9,     # polytope containment slack
    "holds_tol": 1e-8,    # projector distance for kernel equality
    "numeric_tol": 1e-6,  # field-norm target for numeric limits
    "numeric_eq_tol": 1e-8,  # agreement between numeric and closed-form limits
    "eps_cap": 1.0,       # sampling cap when a threshold is +infinity
}


def resolve_tolerances(overrides: dict | None = None) -> dict:
    """Defaults, then the GML_DEFAULT_TOL environment value for eq_tol,
    then explicit per-key overrides."""
    tols = dict(_DEFAULT_TOLS)
    env = os.environ.get(ENV_DEFAULT_TOL)
    if env:
        tols["eq_tol"] = float(env)
    if overrides:
        for key, val in overrides.items():
            if key not in tols:
                raise GmlInputError(f"unknown tolerance key '{key}'")
            tols[key] = float(val)
    return tols


@dataclass(frozen=True)
class CampaignConfig:
    model_path: str
    campaign: str
    trials: int = 100
    seed: int = 0
    tolerances: dict | None = None
    output_path: str | None = None
    probe_tightness: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise GmlInputError("trials must be >= 1")
        if self.seed < 0:
            raise GmlInputError("seed must be a nonnegative integer")


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
    """Random point; half the time restricted to a random support subset."""
    while True:
        z = rng.standard_normal(dim)
        if rng.random() < 0.5:
            mask = rng.random(dim) < 0.6
            if not mask.any():
                mask[int(rng.integers(dim))] = True
            z = np.where(mask, z, 0.0)
        if float(np.abs(z).max()) > 1e-6:
            return mdl.ProjPoint(z)


def _campaign_theorem1(model, trials, seed, tols, probe_tightness):
    d = model.subalgebra_dim
    us = np.array([unit_vector(rng, d) for _, rng in trial_streams(seed, trials)])
    certified = mdl.certify_levels(model, us @ model.ortho_basis @ model.weights.T)
    failures = [_failure(seed, int(k), {"beta": model.ortho_basis.T @ us[k]},
                         {"certified": True}, {"certified": False})
                for k in np.flatnonzero(~certified)]
    thresholds = {"level_tol": "1e-12 * max(1, |levels|)"}
    return trials - len(failures), failures, thresholds, trials


def _campaign_theorem2(model, trials, seed, tols, probe_tightness):
    alphas = model.subalgebra
    delta, probe_pairs = mdl.model_chain_threshold_witness(model, alphas)
    if delta == 0.0:
        raise GmlInputError("model admits no uniform step-size box for its stored basis")
    cap = min(delta, tols["eps_cap"]) * (1.0 - 1e-9)
    n_eps = model.subalgebra_dim - 1
    passes, failures = 0, []
    for k in range(trials):
        rng = substream(seed, k)
        x = _random_point(rng, model.num_coords)
        eps = np.array([open_uniform(rng, 0.0, cap) for _ in range(n_eps)])
        expected = mdl.composed_limit(model, alphas, x)
        actual = mdl.perturbed_limit(model, alphas, eps, x)
        if actual.same_as(expected, tol=tols["eq_tol"]):
            passes += 1
        else:
            failures.append(_failure(
                seed, k, {"point": x.coords, "eps": eps},
                {"support": expected.support, "coords": expected.coords},
                {"support": actual.support, "coords": actual.coords}))
    total = trials
    if probe_tightness:
        for i, j in probe_pairs:
            total += 1
            z = np.zeros(model.num_coords)
            z[i] = z[j] = 1.0
            x = mdl.ProjPoint(z)
            eps = np.full(n_eps, delta)
            expected = mdl.composed_limit(model, alphas, x)
            actual = mdl.perturbed_limit(model, alphas, eps, x)
            if actual.same_as(expected, tol=tols["eq_tol"]):
                passes += 1  # tie probe unexpectedly matched: not a boundary case
            else:
                failures.append(_failure(
                    seed, -1, {"probe": True, "pair": [i, j], "point": x.coords, "eps": eps},
                    {"support": expected.support}, {"support": actual.support}))
    thresholds = {"chain_threshold": delta, "eps_cap": cap, "eq_tol": tols["eq_tol"]}
    return passes, failures, thresholds, total


def _campaign_lemma(model, trials, seed, tols, probe_tightness):
    # operator-level campaign; the model only scopes the report
    n_eps = 10
    passes, failures = 0, []
    for k, rng in trial_streams(seed, trials):
        dim = int(rng.integers(2, 13))
        fam = random_commuting_family(rng, dim, members=2)
        alpha, beta = fam.members
        delta, witnesses = delta_threshold_witness(alpha, beta)
        cap = (delta * (1.0 - 1e-9)) if math.isfinite(delta) else 10.0
        eps = [open_uniform(rng, 0.0, cap) for _ in range(n_eps)]
        # tightness probe: at eps = delta the kernel must strictly jump
        probe = math.isfinite(delta) and any(a * b < 0 for a, b in witnesses)
        rows = eps + [delta] if probe else eps
        holds, dims, _ = kernel_equality_rows(alpha, beta, rows, tol=tols["holds_tol"])
        detail = None
        if not holds[:n_eps].all():
            i = int(np.argmin(holds[:n_eps]))  # the first failing eps
            detail = {"eps": eps[i], "dims": dims[i]}
        elif probe and not dims[n_eps, 0] > dims[n_eps, 1]:
            detail = {"eps": delta, "dims": dims[n_eps], "probe": True}
        if detail is None:
            passes += 1
        else:
            failures.append(_failure(seed, k,
                                     {"alpha": alpha.entries, "beta": beta.entries,
                                      "delta": delta, **detail},
                                     {"holds": True}, {"holds": False, **detail}))
    thresholds = {"holds_tol": tols["holds_tol"], "eps_count": n_eps}
    return passes, failures, thresholds, trials


def _campaign_convexity(model, trials, seed, tols, probe_tightness):
    passes, failures = 0, []
    for k, rng in trial_streams(seed, trials):
        sub_seed = int(rng.integers(0, 2**63))
        _, mp_ok = mdl.moment_polytope_check(model, sample_count=32, seed=sub_seed,
                                             hull_tol=tols["hull_tol"])
        x = _random_point(rng, model.num_coords)
        orbit_ok = mdl.orbit_hull_check(model, x, sample_count=16, seed=sub_seed,
                                        hull_tol=tols["hull_tol"])
        if mp_ok and orbit_ok:
            passes += 1
        else:
            failures.append(_failure(seed, k, {"point": x.coords},
                                     {"polytope": True, "orbit": True},
                                     {"polytope": mp_ok, "orbit": orbit_ok}))
    thresholds = {"hull_tol": tols["hull_tol"]}
    return passes, failures, thresholds, trials


def _campaign_numerics(model, trials, seed, tols, probe_tightness):
    passes, failures = 0, []
    for k, rng in trial_streams(seed, trials):
        beta = _gapped_direction(model, rng)
        if beta is None:
            passes += 1  # nothing testable drawn; do not count against the model
            continue
        x = _random_point(rng, model.num_coords)
        ok = True
        detail = {}
        expected = mdl.flow_limit(model, beta, x)
        actual = num.numeric_limit(model, beta, x, tol=tols["numeric_tol"])
        if not actual.same_as(expected, tol=tols["numeric_eq_tol"]):
            ok = False
            detail["limit"] = {"expected": expected.support, "actual": actual.support}
        traj = num.integrate_flow(model, beta, x, t_end=3.0, dt=0.05)
        if not num.monotonicity_check(traj):
            ok = False
            detail["monotone"] = False
        closed = mdl.flow(model, beta, 2.0, x)
        err_c = float(np.abs(mdl.ProjPoint(num.integrate_flow(model, beta, x, 2.0, dt=0.1)
                                           .coords[-1]).coords - closed.coords).max())
        err_f = float(np.abs(mdl.ProjPoint(num.integrate_flow(model, beta, x, 2.0, dt=0.05)
                                           .coords[-1]).coords - closed.coords).max())
        if err_c > 1e-13 and not (err_c / max(err_f, 1e-17) >= 14.0):
            ok = False
            detail["order_ratio"] = err_c / max(err_f, 1e-17)
        r1 = num.gradient_fd_check(model, beta, x, h=1e-3)
        r2 = num.gradient_fd_check(model, beta, x, h=5e-4)
        if r1 > 1e-12 and not (3.5 <= r1 / max(r2, 1e-18) <= 4.5):
            ok = False
            detail["fd_ratio"] = r1 / max(r2, 1e-18)
        if ok:
            passes += 1
        else:
            failures.append(_failure(seed, k, {"beta": beta, "point": x.coords},
                                     {"all_checks": True}, detail))
    thresholds = {"numeric_tol": tols["numeric_tol"], "numeric_eq_tol": tols["numeric_eq_tol"]}
    return passes, failures, thresholds, trials


_CAMPAIGN_FUNCS = {
    "theorem1": _campaign_theorem1,
    "theorem2": _campaign_theorem2,
    "lemma-linearization": _campaign_lemma,
    "convexity": _campaign_convexity,
    "numerics": _campaign_numerics,
}


def run_campaign_model(model: mdl.WeightedModel, campaign: str, trials: int, seed: int,
                       tolerances: dict | None = None,
                       probe_tightness: bool = False) -> VerificationReport:
    """Run one campaign against an in-memory model."""
    if campaign not in _CAMPAIGN_FUNCS:
        raise UnknownCampaign(f"unknown campaign '{campaign}'; choose from {CAMPAIGNS}")
    tols = resolve_tolerances(tolerances)
    start = time.perf_counter()
    passes, failures, thresholds, total = _CAMPAIGN_FUNCS[campaign](
        model, trials, seed, tols, probe_tightness)
    wall = time.perf_counter() - start
    return VerificationReport(campaign=campaign, model_name=model.name, trials=total,
                              passes=passes, failures=failures,
                              thresholds_used=thresholds, wall_time=wall)


def run_campaign(config: CampaignConfig) -> VerificationReport:
    """Run one campaign from a config pointing at a model file."""
    model = load_model(config.model_path)
    report = run_campaign_model(model, config.campaign, config.trials, config.seed,
                                tolerances=config.tolerances,
                                probe_tightness=config.probe_tightness)
    if config.output_path is not None:
        try:
            Path(config.output_path).write_text(report.dumps())
        except OSError as exc:
            raise ReportIoError(f"cannot write report to {config.output_path}: {exc}") from None
    return report


def describe_model(source) -> dict:
    """Human-oriented summary of a model file or in-memory model."""
    model = source if isinstance(source, mdl.WeightedModel) else load_model(source)
    comps = mdl.fixed_set_subalgebra(model)
    poly = mdl.moment_polytope(model)
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
        "moment_polytope_vertices": jsonify(poly.vertices),
        "chain_threshold": jsonify(mdl.model_chain_threshold(model)),
    }
