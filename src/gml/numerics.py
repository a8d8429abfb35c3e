"""Numerical cross-checks for the closed-form flow machinery.

Explicit Runge-Kutta integration of the gradient flow on unit
representatives, finite-difference gradient and Jacobian probes, value
monotonicity checks, and limit detection with snap-to-component.  All
finite-difference estimates are taken in the round sphere metric and
divided by 2, matching the model's metric convention (see
:mod:`gml.model`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceeded, NotAFixedPoint, StepTooLarge
from .model import (
    FixedComponent,
    ProjPoint,
    WeightedModel,
    fixed_components,
    fundamental_field,
)

DT_DEFAULT = 1e-2
T_MAX_DEFAULT = 1e4
FIX_TOL_DEFAULT = 1e-10
GAP_TOL_DEFAULT = 1e-9
_RENORM_LIMIT = 0.1  # reject a step when renormalization moves the point >10%


def _field_raw(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    bx = levels * x
    return bx - (x @ bx) * x


def _rk4_step(levels: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = _field_raw(levels, x)
    k2 = _field_raw(levels, x + (0.5 * dt) * k1)
    k3 = _field_raw(levels, x + (0.5 * dt) * k2)
    k4 = _field_raw(levels, x + dt * k3)
    y = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    nrm = float(np.linalg.norm(y))
    if abs(nrm - 1.0) > _RENORM_LIMIT:
        raise StepTooLarge(
            f"renormalization correction {abs(nrm - 1.0):.2%} exceeds 10%; reduce dt={dt}")
    return y / nrm


@dataclass(eq=False)
class Trajectory:
    """Sampled integral curve of the gradient flow."""

    times: np.ndarray
    points: list[ProjPoint]
    beta: np.ndarray
    model: WeightedModel

    def __post_init__(self):
        if len(self.points) != self.times.size:
            raise ValueError("times and points disagree in length")

    def mu_values(self) -> np.ndarray:
        """Value of <mu(x), beta> at every sample."""
        levels = self.model.levels(self.beta)
        return np.array([float(levels @ (p.coords ** 2)) for p in self.points])

    def field_norms(self) -> np.ndarray:
        levels = self.model.levels(self.beta)
        return np.array([float(np.linalg.norm(_field_raw(levels, p.coords))) for p in self.points])

    def to_csv(self, path_or_buf) -> None:
        """Write rows (t, x_0..x_n, mu_beta, field_norm)."""
        n1 = self.model.num_coords
        header = ["t", *[f"x_{i}" for i in range(n1)], "mu_beta", "field_norm"]
        mus = self.mu_values()
        norms = self.field_norms()

        def _write(fh):
            w = csv.writer(fh)
            w.writerow(header)
            for t, p, mu, fn in zip(self.times, self.points, mus, norms):
                w.writerow([repr(float(t)), *[repr(float(c)) for c in p.coords],
                            repr(float(mu)), repr(float(fn))])

        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            with open(path_or_buf, "w", newline="") as fh:
                _write(fh)
        else:
            _write(path_or_buf)


def integrate_flow(model: WeightedModel, beta, x0: ProjPoint, t_end: float,
                   dt: float = DT_DEFAULT) -> Trajectory:
    """Classical RK4 with per-step renormalization back to the sphere."""
    if t_end < 0 or not np.isfinite(t_end):
        raise ValueError("t_end must be finite and nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    levels = model.levels(beta)
    times = [0.0]
    points = [x0]
    x = x0.coords.copy()
    t = 0.0
    eps = 1e-12 * max(1.0, t_end)
    while t < t_end - eps:
        step = min(dt, t_end - t)
        x = _rk4_step(levels, x, step)
        t += step
        times.append(t)
        points.append(ProjPoint(x))
    return Trajectory(times=np.array(times), points=points,
                      beta=np.asarray(beta, dtype=float), model=model)


def numeric_limit_details(model: WeightedModel, beta, x0: ProjPoint, tol: float = 1e-8,
                          dt: float = DT_DEFAULT, t_max: float = T_MAX_DEFAULT):
    """Limit search with doubling horizons.

    Returns (snapped ProjPoint, raw terminal coords, t_final, residual).
    The snap picks the fixed component carrying most of the terminal mass
    and renormalizes the restriction of the terminal point to it.
    """
    levels = model.levels(beta)
    x = x0.coords.copy()
    t = 0.0
    horizon = 1.0
    residual = float(np.linalg.norm(_field_raw(levels, x)))
    while residual >= tol:
        if t >= t_max:
            raise HorizonExceeded(
                f"field norm {residual:.3e} still above tol {tol:.3e} at t = {t:.6g}",
                t_final=t, residual=residual)
        # Integrate up to the next horizon with an integer number of equal
        # steps of size <= dt, so t lands on the target exactly and the
        # t_max guard above always fires.
        target = min(horizon, t_max)
        span = target - t
        if span > 0:
            nsteps = max(1, math.ceil(span / dt - 1e-9))
            h = span / nsteps
            for _ in range(nsteps):
                x = _rk4_step(levels, x, h)
            t = target
        residual = float(np.linalg.norm(_field_raw(levels, x)))
        horizon *= 2.0
    comps = fixed_components(model, beta)
    masses = [float(np.linalg.norm(x[list(c.indices)])) for c in comps]
    best = comps[int(np.argmax(masses))]
    y = np.zeros_like(x)
    idx = list(best.indices)
    y[idx] = x[idx]
    return ProjPoint(y), x, t, residual


def numeric_limit(model: WeightedModel, beta, x0: ProjPoint, tol: float = 1e-8,
                  dt: float = DT_DEFAULT, t_max: float = T_MAX_DEFAULT) -> ProjPoint:
    """Numerically detected flow limit, snapped to its fixed component."""
    snapped, _, _, _ = numeric_limit_details(model, beta, x0, tol=tol, dt=dt, t_max=t_max)
    return snapped


def _tangent_frame(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent frame at a unit vector.

    Gram-Schmidt of the coordinate directions against x, keeping the
    first n that survive; at a coordinate point e_j this returns the
    remaining coordinate directions in index order.
    """
    n1 = x.size
    frame = []
    for i in range(n1):
        v = np.zeros(n1)
        v[i] = 1.0
        v -= (v @ x) * x
        for u in frame:
            v -= (v @ u) * u
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            frame.append(v / nrm)
        if len(frame) == n1 - 1:
            break
    return np.array(frame)


def gradient_fd_check(model: WeightedModel, beta, x: ProjPoint, h: float = 1e-5) -> float:
    """Residual between the analytic field and a central-difference gradient.

    The value function is f(y) = sum_i levels_i y_i^2 along geodesic steps
    in an orthonormal tangent frame; the round-metric estimate is divided
    by 2 per the model's metric convention.  Residual is O(h^2).
    """
    levels = model.levels(beta)
    frame = _tangent_frame(x.coords)
    grad = np.zeros_like(x.coords)
    ch, sh = math.cos(h), math.sin(h)
    for u in frame:
        fp = float(levels @ ((ch * x.coords + sh * u) ** 2))
        fm = float(levels @ ((ch * x.coords - sh * u) ** 2))
        grad += ((fp - fm) / (2.0 * h)) * u
    residual = grad / 2.0 - fundamental_field(model, beta, x)
    return float(np.linalg.norm(residual))


def monotonicity_check(traj: Trajectory, mono_tol: float = 1e-9,
                       fix_tol: float = FIX_TOL_DEFAULT) -> bool:
    """True iff mu values never drop by more than mono_tol and strictly
    increase wherever the field norm is above fix_tol.

    Strictness is only assessable where the predicted per-step gain
    (dt times the squared field norm) clears floating-point resolution;
    below that the nondecreasing clause alone applies.
    """
    vals = traj.mu_values()
    norms = traj.field_norms()
    scale = max(1.0, float(np.abs(vals).max()))
    resolution = 64.0 * np.finfo(float).eps * scale
    for k in range(vals.size - 1):
        dv = vals[k + 1] - vals[k]
        if dv < -mono_tol * scale:
            return False
        dt = float(traj.times[k + 1] - traj.times[k])
        predicted = dt * norms[k] ** 2
        if norms[k] > fix_tol and predicted > resolution and not dv > 0.0:
            return False
    return True


@dataclass(eq=False)
class Linearization:
    """Finite-difference Jacobian of the field in a tangent frame."""

    base: ProjPoint
    frame: np.ndarray        # (n, n+1) rows: tangent directions
    matrix: np.ndarray       # (n, n) symmetric
    eigenvalues: np.ndarray  # ascending


def linearization_at(model: WeightedModel, beta, x_fixed: ProjPoint, h: float = 1e-6,
                     fix_tol: float = FIX_TOL_DEFAULT, sym_tol: float = 1e-5) -> Linearization:
    """Central-difference Jacobian of the field at a fixed point.

    At a coordinate point e_j the eigenvalues are the speed differences
    <lambda_i - lambda_j, beta> over i != j.
    """
    levels = model.levels(beta)
    base = x_fixed.coords
    res = float(np.linalg.norm(_field_raw(levels, base)))
    if res > fix_tol:
        raise NotAFixedPoint(f"field norm {res:.3e} exceeds fix_tol {fix_tol:.3e}")
    frame = _tangent_frame(base)
    n = frame.shape[0]
    jac = np.zeros((n, n))
    ch, sh = math.cos(h), math.sin(h)
    for b in range(n):
        yp = ch * base + sh * frame[b]
        ym = ch * base - sh * frame[b]
        df = (_field_raw(levels, yp) - _field_raw(levels, ym)) / (2.0 * h)
        jac[:, b] = frame @ df
    defect = float(np.abs(jac - jac.T).max())
    if defect > sym_tol * max(1.0, float(np.abs(jac).max())):
        raise NotAFixedPoint(
            f"Jacobian asymmetry {defect:.3e} too large; point may not be fixed")
    jac = (jac + jac.T) / 2.0
    eigs = np.linalg.eigvalsh(jac)
    return Linearization(base=x_fixed, frame=frame, matrix=jac, eigenvalues=eigs)
