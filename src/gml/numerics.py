"""Numerical cross-checks for the closed-form flow machinery.

Explicit Runge-Kutta integration of the gradient flow on unit
representatives, finite-difference gradient and Jacobian probes, value
monotonicity checks, and limit detection with snap-to-component.  All
finite-difference estimates are taken in the round sphere metric and
divided by 2, matching the model's metric convention (see
:mod:`gml.model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GmlInputError, HorizonExceeded, NotAFixedPoint, StepTooLarge, check_real
from .model import (
    ProjPoint,
    WeightedModel,
    _level_chains,
    action_field,
    finite_speeds,
    fixed_components,  # unused here; benchmarks/test_tracer.py checks the tracer wraps it here
)

DT_DEFAULT = 1e-2
T_MAX_DEFAULT = 1e4
FIX_TOL = 1e-10  # field norm below which a point counts as fixed
_RENORM_LIMIT = 0.1  # reject a step when renormalization moves the point >10%


def _norms(y: np.ndarray):
    """Euclidean norm of one vector (n,) or of each row of a stack (N, n),
    each with the bits of ``np.linalg.norm`` of that one vector: a stacked
    ``(1, n) @ (n, 1)`` product gives the 1-row dot's bits."""
    return np.sqrt((y[..., None, :] @ y[..., :, None])[..., 0, 0])


def rk4_rows(levels: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """RK4 kernel: one classical Runge-Kutta step of size h of the flow field,
    renormalized to the sphere, for one unit representative x (n,) or each
    row of a stack (N, n), with speeds (n,) or one row of speeds per row.

    Raises StepTooLarge when renormalization would move a point by more
    than 10%, or the step is not finite; for a stack the message names the
    first such row.
    """
    k1 = action_field(levels, x)
    k2 = action_field(levels, x + (0.5 * h) * k1)
    k3 = action_field(levels, x + (0.5 * h) * k2)
    k4 = action_field(levels, x + h * k3)
    y = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    nrm = _norms(y)
    off = ~(np.abs(nrm - 1.0) <= _RENORM_LIMIT)  # a NaN norm too
    if off.any():
        k = int(off.argmax())
        bad = nrm.flat[k]
        reason = (f"renormalization correction {abs(bad - 1.0):.2%} exceeds 10%; reduce dt={h}"
                  if math.isfinite(bad) else f"the step is not finite; reduce dt={h}")
        raise StepTooLarge(reason, row=k if y.ndim == 2 else None)
    return y / nrm[..., None]


def _rk4_step(levels: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of one unit representative: a 1-row ``rk4_rows`` call."""
    return rk4_rows(levels, x, dt)


@dataclass(eq=False)
class Trajectory:
    """Sampled integral curve of the gradient flow.

    ``coords[k]`` is the integrator's unit representative at ``times[k]``
    (row 0 holds the start point's coordinates); ``ProjPoint(coords[k])``
    is the sampled point.
    """

    times: np.ndarray
    coords: np.ndarray  # (T, n+1)
    beta: np.ndarray
    model: WeightedModel

    def __post_init__(self):
        if len(self.coords) != self.times.size:
            raise ValueError("times and coords disagree in length")

    def mu_values(self) -> np.ndarray:
        """Value of <mu(x), beta> at every sample."""
        return (self.coords ** 2) @ self.model.finite_levels(self.beta)

    def field_norms(self) -> np.ndarray:
        return np.linalg.norm(action_field(self.model.finite_levels(self.beta), self.coords),
                              axis=1)


def integrate_flow(model: WeightedModel, beta, x0: ProjPoint, t_end: float,
                   dt: float = DT_DEFAULT) -> Trajectory:
    """Classical RK4 with per-step renormalization back to the sphere."""
    t_end, dt = check_real(t_end, "t_end", ">= 0"), check_real(dt, "dt", "> 0")
    levels = model.finite_levels(beta)
    times = [0.0]
    x = model.require_point(x0).coords
    rows = [x]
    t = 0.0
    eps = 1e-12 * max(1.0, t_end)
    with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows raises StepTooLarge
        while t < t_end - eps:
            step = min(dt, t_end - t)
            x = _rk4_step(levels, x, step)
            t += step
            times.append(t)
            rows.append(x)
    return Trajectory(times=np.array(times), coords=np.array(rows),
                      beta=np.asarray(beta, dtype=float), model=model)


def numeric_limit_rows(levels: np.ndarray, x: np.ndarray, tol: float = 1e-8,
                       dt: float = DT_DEFAULT, t_max: float = T_MAX_DEFAULT):
    """Limit-search kernel: integrate one unit start point x (n,) or each row
    of a stack (N, n), under speeds (n,) or one row of speeds per row, until
    its field norm drops below tol.

    The rows share one step schedule: horizons 1, 2, 4, ... (capped at
    t_max), each reached in equal steps of size <= dt, so t lands on every
    horizon exactly and the t_max guard always fires.  A row whose field
    norm is below tol at a horizon stops there and takes no further steps.

    Returns (snapped, raw, t_final, residual), per row: the terminal state
    restricted to its speed class (the classes of ``fixed_components``)
    carrying the most mass, the terminal state, the time it stopped and
    its field norm there.  For a stack, StepTooLarge, HorizonExceeded and
    GmlInputError name the first failing row.
    """
    tol = check_real(tol, "tol", "> 0")
    dt = check_real(dt, "dt", "> 0")
    t_max = check_real(t_max, "t_max", "> 0")
    stacked = x.ndim == 2
    x = np.array(x, dtype=float, ndmin=2)
    lv = np.broadcast_to(levels, x.shape)
    finite_speeds(lv if stacked else lv[0])
    with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows raises StepTooLarge
        res = _norms(action_field(lv, x))
        t_final = np.zeros(len(x))
        rows = np.flatnonzero(res >= tol)
        t, horizon = 0.0, 1.0
        while rows.size:
            if t >= t_max:
                k = int(rows[0])
                raise HorizonExceeded(
                    f"field norm {res[k]:.3e} still above tol {tol:.3e} at t = {t:.6g}",
                    t_final=t, residual=float(res[k]), row=k if stacked else None)
            target = min(horizon, t_max)
            nsteps = max(1, math.ceil((target - t) / dt - 1e-9))
            h = (target - t) / nsteps
            y, ly = x[rows], lv[rows]
            try:
                for _ in range(nsteps):
                    y = rk4_rows(ly, y, h)
            except StepTooLarge as exc:
                raise StepTooLarge(exc.reason, int(rows[exc.row]) if stacked else None) from None
            t = target
            x[rows], res[rows], t_final[rows] = y, _norms(action_field(ly, y)), t
            rows = rows[res[rows] >= tol]
            horizon *= 2.0
    order, _, breaks = _level_chains(lv)
    rank = np.zeros_like(order)  # class number at each sorted position
    rank[:, 1:] = np.cumsum(breaks, axis=1)
    label = np.empty_like(order)
    np.put_along_axis(label, order, rank, axis=1)
    mass = np.zeros(x.shape)
    np.add.at(mass, (np.arange(len(x))[:, None], label), x * x)
    snapped = np.where(label == mass.argmax(axis=1)[:, None], x, 0.0)
    if stacked:
        return snapped, x, t_final, res
    return snapped[0], x[0], float(t_final[0]), float(res[0])


def numeric_limit(model: WeightedModel, beta, x0: ProjPoint, tol: float = 1e-8,
                  dt: float = DT_DEFAULT, t_max: float = T_MAX_DEFAULT) -> ProjPoint:
    """Numerically detected flow limit, snapped to its fixed component: a
    1-row ``numeric_limit_rows`` call."""
    snapped, _, _, _ = numeric_limit_rows(model.finite_levels(beta),
                                          model.require_point(x0).coords,
                                          tol=tol, dt=dt, t_max=t_max)
    return ProjPoint(snapped)


def _tangent_frame(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent frame at a unit vector x, as rows:
    the last n columns of the Householder Q of ``[x | I]``, whose first
    column is +-x."""
    return np.linalg.qr(np.column_stack([x, np.eye(x.size)]))[0][:, 1:].T


def gradient_fd_check(model: WeightedModel, beta, x: ProjPoint, h: float = 1e-5) -> float:
    """Residual between the analytic field and a central-difference gradient.

    The value function is f(y) = sum_i levels_i y_i^2 along geodesic steps
    in an orthonormal tangent frame; the round-metric estimate is divided
    by 2 per the model's metric convention.  Residual is O(h^2).  Finite
    speeds near the float limit can overflow the difference or the residual:
    GmlInputError then, without a numpy warning.
    """
    h = check_real(h, "h", "> 0")
    levels = model.finite_levels(beta)
    y = model.require_point(x).coords
    frame = _tangent_frame(y)
    ch, sh = math.cos(h), math.sin(h)
    with np.errstate(over="ignore", invalid="ignore"):
        fp = ((ch * y + sh * frame) ** 2) @ levels
        fm = ((ch * y - sh * frame) ** 2) @ levels
        grad = ((fp - fm) / (2.0 * h)) @ frame
        residual = float(np.linalg.norm(grad / 2.0 - action_field(levels, y)))
    if not math.isfinite(residual):
        raise GmlInputError(f"the finite-difference residual of the speeds {levels.tolist()} "
                            "is not finite; use a smaller beta")
    return residual


def monotonicity_check(traj: Trajectory) -> bool:
    """True iff mu values never drop by more than 1e-9 * max(1, max |mu|)
    and strictly increase wherever the field norm is above FIX_TOL.

    Strictness is only assessable where the predicted per-step gain
    (dt times the squared field norm) clears floating-point resolution;
    below that the nondecreasing clause alone applies.
    """
    vals = traj.mu_values()
    norms = traj.field_norms()[:-1]
    scale = max(1.0, float(np.abs(vals).max()))  # a NaN maximum leaves 1.0
    resolution = 64.0 * np.finfo(float).eps * scale
    dv = np.diff(vals)
    strict = (norms > FIX_TOL) & (np.diff(traj.times) * norms ** 2 > resolution)
    return not ((dv < -1e-9 * scale) | (strict & ~(dv > 0.0))).any()


@dataclass(eq=False)
class Linearization:
    """Finite-difference Jacobian of the field in a tangent frame."""

    base: ProjPoint
    frame: np.ndarray        # (n, n+1) rows: tangent directions
    matrix: np.ndarray       # (n, n) symmetric
    eigenvalues: np.ndarray  # ascending


def linearization_at(model: WeightedModel, beta, x_fixed: ProjPoint,
                     h: float = 1e-6) -> Linearization:
    """Central-difference Jacobian of the field at a fixed point.

    Raises NotAFixedPoint when the field norm there exceeds FIX_TOL, or the
    Jacobian's asymmetry exceeds 1e-5 * max(1, max |entry|).

    At a coordinate point e_j the eigenvalues are the speed differences
    <lambda_i - lambda_j, beta> over i != j.
    """
    h = check_real(h, "h", "> 0")
    levels = model.finite_levels(beta)
    base = model.require_point(x_fixed).coords
    res = float(np.linalg.norm(action_field(levels, base)))
    if res > FIX_TOL:
        raise NotAFixedPoint(f"field norm {res:.3e} exceeds FIX_TOL {FIX_TOL:.3e}")
    frame = _tangent_frame(base)
    ch, sh = math.cos(h), math.sin(h)
    # row b of df is the central difference of the field along frame[b]
    df = (action_field(levels, ch * base + sh * frame)
          - action_field(levels, ch * base - sh * frame)) / (2.0 * h)
    jac = frame @ df.T
    defect = float(np.abs(jac - jac.T).max())
    if defect > 1e-5 * max(1.0, float(np.abs(jac).max())):
        raise NotAFixedPoint(
            f"Jacobian asymmetry {defect:.3e} too large; point may not be fixed")
    jac = (jac + jac.T) / 2.0
    eigs = np.linalg.eigvalsh(jac)
    return Linearization(base=x_fixed, frame=frame, matrix=jac, eigenvalues=eigs)
