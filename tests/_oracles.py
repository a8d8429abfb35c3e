"""Independent re-derivations used to confirm frozen test values.

Every function here avoids the code paths of the package proper:
kernel dimensions come from SVD ranks, hull membership from linear
programming or, on a segment, from its end parameters, hull facets from
Qhull, and limit supports and speed signs
from direct combinatorics on the weight table.  The loop forms of the
package's array kernels (near-duplicate representatives, trajectory
values, finite-difference probes, perturbed kernels, RK4 steps and the
numeric limit search) are kept here, one row at a time, and box radii are
computed exactly in rationals.  ``orbit_hull_loop`` and ``theorem2_loop``
are the exceptions: they keep the package's kernels and pin only the
sampling.  ``orbit_hull_loop`` makes one generator call per sample of
``orbit_hull_check``, on a hull built afresh; ``theorem2_loop`` runs every
theorem2 trial on its own stream, one step size per generator call, a
one-direction basis included.
``ScriptedNormals`` stands in for a generator, so that the samplers meet
chosen draws, null ones among them.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from gml import campaigns
from gml import model as mdl
from gml.errors import GmlInputError, HorizonExceeded, StepTooLarge
from gml.hull import HULL_TOL, Polytope
from gml.model import _unit_rows, flow_rows, gradient_rows, limit_support
from gml.rng import open_uniform, substream, unit_vector


class ScriptedNormals:
    """Generator stand-in that hands out a fixed list of normals in order;
    its state is the read position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.bit_generator = self
        self.state = 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out = self.values[self.state:self.state + n]
        self.state += n
        return out.reshape(shape)


def kernel_dim(entries, tol: float = 1e-9) -> int:
    """Kernel dimension via SVD rank (not eigendecomposition)."""
    a = np.asarray(entries, dtype=float)
    return a.shape[0] - np.linalg.matrix_rank(a, tol=tol)


def joint_kernel_dim(*mats, tol: float = 1e-9) -> int:
    """dim of the common kernel, via the rank of the stacked matrix."""
    stacked = np.vstack([np.asarray(m, dtype=float) for m in mats])
    return stacked.shape[1] - np.linalg.matrix_rank(stacked, tol=tol)


def eps_grid_kernel_equality(alpha, beta, eps_values, tol: float = 1e-9):
    """For each eps, does Ker(alpha + eps*beta) match Ker alpha ∩ Ker beta?

    Dimensions only; containment one way is automatic for commuting
    symmetric pairs, so equal dimension certifies equality.
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    want = joint_kernel_dim(a, b, tol=tol)
    return [kernel_dim(a + e * b, tol=tol) == want for e in eps_values]


def signed_columns_loop(cols):
    """Flip each column so its first largest-magnitude entry is positive
    (a C-order copy, the layout the package's bases have)."""
    out = np.array(cols, dtype=float, order="C")
    for j in range(out.shape[1]):
        if out[int(np.argmax(np.abs(out[:, j]))), j] < 0:
            out[:, j] = -out[:, j]
    return out


def _zero_space_loop(mat, tol):
    """Sign-canonical eigenvectors of a symmetric matrix with |eigenvalue| <= tol."""
    w, v = np.linalg.eigh(mat)
    return signed_columns_loop(v[:, np.abs(w) <= tol])


def _zero_angle_count(u, v, tol: float = 1e-9) -> int:
    """How many principal angles between the column spans u and v are zero."""
    if not (u.shape[1] and v.shape[1]):
        return 0
    return int(np.count_nonzero(np.linalg.svd(u.T @ v)[1] >= 1.0 - tol))


def kernel_equality_loop(alpha, beta, eps_values, tol: float = 1e-8, kernel_tol=None):
    """``Ker(alpha + eps*beta)`` against ``Ker alpha ∩ Ker beta`` one step
    size at a time, by one orthonormal kernel basis per step size: its
    projector's 2-norm distance from the intersection's, and the zero
    principal angles between the two.  The zero threshold of a matrix is
    ``kernel_tol``, or else 1e-12 times its entry scale (for a shifted
    matrix, the larger scale of alpha and eps * beta).  Returns lists
    ``holds``, ``dims`` (as ``KernelEqualityReport.dims``) and distances.
    """
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    scale_a, scale_b = float(np.abs(a).max()), float(np.abs(b).max())
    ka = _zero_space_loop(a, 1e-12 * scale_a if kernel_tol is None else kernel_tol)
    kb = _zero_space_loop(b, 1e-12 * scale_b if kernel_tol is None else kernel_tol)
    k_int = np.zeros((a.shape[0], 0))
    count = _zero_angle_count(ka, kb)
    if count:
        w = np.linalg.svd(ka.T @ kb)[0]
        k_int = signed_columns_loop(np.linalg.qr(ka @ w[:, :count])[0])
    holds, dims, dists = [], [], []
    for e in eps_values:
        m = a + e * b
        t = 1e-12 * max(scale_a, e * scale_b) if kernel_tol is None else kernel_tol
        k = _zero_space_loop(m / 2.0 + m.T / 2.0, t)
        dist = float(np.linalg.norm(k @ k.T - k_int @ k_int.T, 2))
        holds.append(dist <= tol)
        dims.append((k.shape[1], k_int.shape[1], _zero_angle_count(k, k_int)))
        dists.append(dist)
    return holds, dims, dists


def chain_grid_kernel_equality(mats, eps_grid, tol: float = 1e-9):
    """Same check for alpha_1 + sum_k eps_k * alpha_k over a grid of tuples."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    want = joint_kernel_dim(*mats, tol=tol)
    out = []
    for eps in eps_grid:
        combo = mats[0] + sum(e * m for e, m in zip(eps, mats[1:]))
        out.append(kernel_dim(combo, tol=tol) == want)
    return out


def in_hull_lp(points, x, tol: float = 1e-9) -> bool:
    """Is x a convex combination of the rows of points?  LP feasibility."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float)
    k, d = pts.shape
    a_eq = np.vstack([pts.T, np.ones((1, k))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                  method="highs")
    if not res.success:
        return False
    return float(np.linalg.norm(a_eq @ res.x - b_eq)) <= tol


def interval_contains(lo, hi, y, tol: float = 1e-9):
    """Segment membership by its end parameters: lo - tol <= y <= hi + tol."""
    y = np.asarray(y, dtype=float)
    return (lo - tol <= y) & (y <= hi + tol)


def interval_strictly_inside(lo, hi, y, margin):
    """Relative interior of a segment: lo + margin < y < hi - margin."""
    y = np.asarray(y, dtype=float)
    return (lo + margin < y) & (y < hi - margin)


def lp_vertices(points, tol: float = 1e-9):
    """Indices of rows that are NOT convex combinations of the other rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = []
    for i in range(pts.shape[0]):
        others = np.delete(pts, i, axis=0)
        if others.shape[0] == 0 or not in_hull_lp(others, pts[i], tol=tol):
            out.append(i)
    return out


def qhull_reference(points):
    """Qhull's hull of full-dimensional points: vertex indices, facet
    equations (rows [normal, offset], normal . y + offset <= 0 inside) and
    the point indices of each (simplicial) facet."""
    qh = ConvexHull(np.asarray(points, dtype=float))
    return qh.vertices.tolist(), qh.equations, qh.simplices


def lex_argmax_support(weights, alphas, support):
    """Support of the composed limit: lexicographic argmax of level tuples."""
    weights = np.asarray(weights, dtype=float)
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    idx = list(support)
    for a in alphas:
        vals = weights[idx] @ a
        top = vals.max()
        idx = [i for i, v in zip(idx, vals) if v >= top - 1e-12 * max(1.0, abs(top))]
    return tuple(idx)


def direct_flow(weights, beta, t, coords):
    """Closed-form flow by plain exponentials (safe only for moderate t)."""
    weights = np.asarray(weights, dtype=float)
    levels = weights @ np.asarray(beta, dtype=float)
    y = np.exp(t * levels) * np.asarray(coords, dtype=float)
    return y / np.linalg.norm(y)


def pair_speeds(weights, alphas) -> dict:
    """Speed vector ``((w_i - w_j) . a for a in alphas)`` of every
    coordinate pair i < j, by plain loops over the weight table."""
    w = np.asarray(weights, dtype=float)
    a = np.atleast_2d(np.asarray(alphas, dtype=float))
    return {(i, j): np.array([float(np.dot(w[i] - w[j], row)) for row in a])
            for i in range(len(w)) for j in range(i + 1, len(w))}


def leading_sign(d, tol: float) -> int:
    """Sign of the first entry of d with |entry| > tol; 0 when there is none."""
    for x in d:
        if abs(x) > tol:
            return 1 if x > 0 else -1
    return 0


def box_radius_loop(levels, tol):
    """The lead-slot/tail-sign box rule row by row: per row a bound
    ``|l_0| / sum |tail|`` (lead in slot 0), 0.0 (later lead, some tail
    entry opposing it) or +inf.  Returns (delta, binding rows, tie rows)."""
    rows = np.asarray(levels, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), rows.shape[1:])
    bounds, opposed = [], []
    for row in rows:
        sig = [k for k in range(row.size) if abs(row[k]) > tol[k]]
        tail = sig[1:]
        flips = [np.sign(row[k]) != np.sign(row[sig[0]]) for k in tail]
        if tail and sig[0] == 0:
            bounds.append(abs(row[0]) / sum(abs(row[k]) for k in tail))
        else:
            bounds.append(0.0 if any(flips) else float("inf"))
        opposed.append(bool(tail) and sig[0] == 0 and all(flips))
    delta = min(bounds, default=float("inf"))
    binding = [p for p, b in enumerate(bounds) if b < float("inf") and b <= delta * (1 + 1e-9)]
    return delta, binding, [p for p in binding if opposed[p]]


def box_radius_exact(levels):
    """Exact sign-preserving box radius of integer rows, in rationals.

    A row keeps the sign of its lead along ``l · (1, eps_2, ..., eps_k)``
    on the box ``(0, delta)^(k-1)`` exactly when: a slot-0 lead is at least
    delta times the sum of the tail entries that oppose it (same-sign
    entries only help); a later lead has no opposing tail entry at all.
    Returns the minimum over rows: a Fraction, or +inf when no row
    constrains."""
    best = math.inf
    for row in np.asarray(levels):
        ints = [int(x) for x in row]
        sig = [k for k, x in enumerate(ints) if x]
        if not sig:
            continue
        lead = ints[sig[0]]
        opposed = sum(abs(ints[k]) for k in sig[1:] if (ints[k] > 0) != (lead > 0))
        if opposed:
            best = min(best, Fraction(abs(lead), opposed) if sig[0] == 0 else Fraction(0))
    return best


def first_accepted_loop(model, rng, attempts: int, accept):
    """Direction sampling one draw at a time: up to ``attempts`` uniform
    unit draws (a draw of norm <= 1e-12 is redrawn), each mapped into the
    subalgebra and tested by ``accept(beta)``.  Returns the first accepted
    direction, or None."""
    for _ in range(attempts):
        while True:
            v = rng.standard_normal(model.subalgebra_dim)
            nrm = math.sqrt(v.dot(v))
            if nrm > 1e-12:
                break
        beta = model.ortho_basis.T @ (v / nrm)
        if accept(beta):
            return beta
    return None


def speeds_separated(weights, beta, min_gap: float) -> bool:
    """Do the distinct speeds (sorted gaps above 1e-9) sit at least
    min_gap apart?"""
    gaps = np.diff(np.sort(np.asarray(weights, dtype=float) @ beta))
    gaps = gaps[gaps > 1e-9]
    return not gaps.size or bool(gaps.min() >= min_gap)


def dedupe_loop(points, tol):
    """Near-duplicate removal one row at a time: a row is kept unless some
    earlier kept row lies within tol (max-abs distance)."""
    pts = np.asarray(points, dtype=float)
    keep = []
    for i, p in enumerate(pts):
        keep.append(not any(keep[j] and np.abs(p - pts[j]).max() <= tol for j in range(i)))
    return pts[np.array(keep, dtype=bool)]


def vector_partition_loop(rows, tol):
    """Partition of row indices: each unassigned row in index order opens a
    class and takes every unassigned row within tol (max-abs distance)."""
    rows = np.asarray(rows, dtype=float)
    label = [-1] * len(rows)
    for i in range(len(rows)):
        if label[i] < 0:
            for j in range(len(rows)):
                if label[j] < 0 and np.abs(rows[i] - rows[j]).max() <= tol:
                    label[j] = i
    return tuple(tuple(j for j in range(len(rows)) if label[j] == c) for c in sorted(set(label)))


def field_loop(levels, x):
    """Bx - <x, Bx> x for one unit representative x."""
    bx = np.asarray(levels, dtype=float) * x
    return bx - float(x @ bx) * x


def rk4_step_loop(levels, x, dt):
    """One classical RK4 step of one unit representative, renormalized;
    StepTooLarge when renormalization moves the point by more than 10%."""
    k1 = field_loop(levels, x)
    k2 = field_loop(levels, x + (0.5 * dt) * k1)
    k3 = field_loop(levels, x + (0.5 * dt) * k2)
    k4 = field_loop(levels, x + dt * k3)
    y = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    nrm = float(np.linalg.norm(y))
    if abs(nrm - 1.0) > 0.1:
        raise StepTooLarge(
            f"renormalization correction {abs(nrm - 1.0):.2%} exceeds 10%; reduce dt={dt}")
    return y / nrm


def speed_classes_loop(levels):
    """Coordinate classes of equal speed, by speed descending: consecutive
    sorted speeds within 1e-12 * max(1, max |speed|) share a class; each
    class lists its indices in increasing order."""
    levels = np.asarray(levels, dtype=float)
    tol = 1e-12 * max(1.0, float(np.abs(levels).max()))
    order = np.argsort(-levels, kind="stable")
    classes = [[int(order[0])]]
    for prev, i in zip(order, order[1:]):
        if levels[prev] - levels[i] > tol:
            classes.append([])
        classes[-1].append(int(i))
    return [sorted(c) for c in classes]


def numeric_limit_loop(levels, x0, tol, dt, t_max):
    """Limit search for one start point: RK4 steps over horizons 1, 2, 4, ...
    (capped at t_max), each reached in equal steps of size <= dt, until the
    field norm drops below tol; then the terminal point restricted to the
    speed class carrying the most mass.  Returns (snapped, raw, t, residual)
    or raises HorizonExceeded / StepTooLarge."""
    x = np.array(x0, dtype=float)
    t = 0.0
    horizon = 1.0
    residual = float(np.linalg.norm(field_loop(levels, x)))
    while residual >= tol:
        if t >= t_max:
            raise HorizonExceeded(
                f"field norm {residual:.3e} still above tol {tol:.3e} at t = {t:.6g}",
                t_final=t, residual=residual)
        target = min(horizon, t_max)
        span = target - t
        if span > 0:
            nsteps = max(1, math.ceil(span / dt - 1e-9))
            h = span / nsteps
            for _ in range(nsteps):
                x = rk4_step_loop(levels, x, h)
            t = target
        residual = float(np.linalg.norm(field_loop(levels, x)))
        horizon *= 2.0
    classes = speed_classes_loop(levels)
    masses = [float(np.linalg.norm(x[c])) for c in classes]
    best = classes[int(np.argmax(masses))]
    y = np.zeros_like(x)
    y[best] = x[best]
    return y, x, t, residual


def mu_values_loop(levels, rows):
    """<mu(x), beta> = sum_i levels_i x_i^2, one sample at a time."""
    return np.array([float(levels @ (np.asarray(r) ** 2)) for r in rows])


def field_norms_loop(levels, rows):
    return np.array([float(np.linalg.norm(field_loop(levels, np.asarray(r)))) for r in rows])


def monotonicity_loop(times, vals, norms, mono_tol: float = 1e-9, fix_tol: float = 1e-10) -> bool:
    """Step-by-step monotonicity decision: no drop beyond mono_tol * scale,
    and a strict rise wherever the field norm exceeds fix_tol and the
    predicted gain dt * norm^2 clears 64 ulps of the value scale."""
    scale = max(1.0, float(np.abs(vals).max()))
    resolution = 64.0 * np.finfo(float).eps * scale
    for k in range(len(vals) - 1):
        dv = vals[k + 1] - vals[k]
        if dv < -mono_tol * scale:
            return False
        predicted = float(times[k + 1] - times[k]) * norms[k] ** 2
        if norms[k] > fix_tol and predicted > resolution and not dv > 0.0:
            return False
    return True


def gram_schmidt_frame(x):
    """Tangent frame at a unit vector: Gram-Schmidt of the coordinate
    directions against x, keeping the first n that survive."""
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


def gradient_fd_loop(levels, x, h):
    """Central-difference gradient residual, one frame vector at a time,
    along geodesics in the Gram-Schmidt frame (round metric, divided by 2)."""
    grad = np.zeros_like(x)
    ch, sh = math.cos(h), math.sin(h)
    for u in gram_schmidt_frame(x):
        fp = float(levels @ ((ch * x + sh * u) ** 2))
        fm = float(levels @ ((ch * x - sh * u) ** 2))
        grad += ((fp - fm) / (2.0 * h)) * u
    return float(np.linalg.norm(grad / 2.0 - field_loop(levels, x)))


def linearization_loop(levels, x, h, fix_tol: float = 1e-10, sym_tol: float = 1e-5):
    """Central-difference Jacobian of the field, one frame column at a
    time, in the Gram-Schmidt frame.  Returns (frame, symmetrized
    Jacobian), or None where the field norm exceeds fix_tol or the
    Jacobian's asymmetry exceeds sym_tol * max(1, max |entry|)."""
    if float(np.linalg.norm(field_loop(levels, x))) > fix_tol:
        return None
    frame = gram_schmidt_frame(x)
    n = frame.shape[0]
    jac = np.zeros((n, n))
    ch, sh = math.cos(h), math.sin(h)
    for b in range(n):
        df = (field_loop(levels, ch * x + sh * frame[b])
              - field_loop(levels, ch * x - sh * frame[b])) / (2.0 * h)
        jac[:, b] = frame @ df
    if float(np.abs(jac - jac.T).max()) > sym_tol * max(1.0, float(np.abs(jac).max())):
        return None
    return frame, (jac + jac.T) / 2.0


def orbit_hull_loop(model, x, sample_count: int, rng) -> bool:
    """``orbit_hull_check`` drawing one sample per generator call, on the hull
    of the support's projected weights built afresh (a full support too)."""
    supp = x.support_mask
    poly = Polytope(model.projected_weights[supp])
    d = model.subalgebra_dim

    def speeds(draws):
        return np.reshape(draws, (-1, d)) @ model.ortho_basis @ model.weights.T

    def limit_images(lv):
        lim = np.where(limit_support(lv, supp[None, :]), x.coords, 0.0)
        return gradient_rows(model, _unit_rows(lim))

    lv = speeds([unit_vector(rng, d) * rng.uniform(0.0, 0.75) for _ in range(sample_count)])
    flowed = flow_rows(lv, 1.0, x.coords)
    if not poly.strictly_inside_batch(gradient_rows(model, _unit_rows(flowed))).all():
        return False
    centroid = poly.vertices.mean(axis=0)
    cands = []
    for vi, v in enumerate(poly.vertices):
        sd = poly.supporting_direction(vi)
        cands += [sd, v - centroid] + [sd + 1e-3 * unit_vector(rng, d) for _ in range(8)]
    us = np.array(cands)
    us[np.linalg.norm(us, axis=1) < 1e-12] = 1.0
    miss = np.abs(limit_images(speeds(us)) - np.repeat(poly.vertices, 10, axis=0)).max(axis=1)
    if not (miss <= HULL_TOL).reshape(-1, 10).any(axis=1).all():
        return False
    us = np.reshape([rng.integers(-9, 10, size=d).astype(float) for _ in range(sample_count)],
                    (-1, d))
    lv = speeds(us[us.any(axis=1)])
    return bool(poly.contains_batch(limit_images(lv)).all())


def theorem2_loop(model, trials: int, seed: int, probe_tightness: bool):
    """The theorem2 campaign's report, one trial at a time: a substream per
    trial, one ``open_uniform`` call per step size, and the composed limit
    against the perturbed one, whatever the basis length; then the probes."""
    alphas = model.subalgebra
    delta, probe_pairs = mdl.model_chain_threshold_witness(model, alphas)
    if delta == 0.0:
        raise GmlInputError("model admits no uniform step-size box for its stored basis")
    cap = min(delta, campaigns._EPS_CAP) * (1.0 - 1e-9)
    n_eps = model.subalgebra_dim - 1
    failures = []
    for k in range(trials):
        rng = substream(seed, k)
        x = campaigns._random_point(rng, model.num_coords)
        eps = np.array([open_uniform(rng, 0.0, cap) for _ in range(n_eps)])
        expected = mdl.composed_limit(model, alphas, x)
        actual = mdl.perturbed_limit(model, alphas, eps, x)
        if not actual.same_as(expected, tol=campaigns._EQ_TOL):
            failures.append(campaigns._failure(
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
        if not actual.same_as(expected, tol=campaigns._EQ_TOL):
            failures.append(campaigns._failure(
                seed, -1, {"probe": True, "pair": [i, j], "point": x.coords, "eps": eps},
                {"support": expected.support}, {"support": actual.support}))
    total = trials + len(probes)
    return campaigns.VerificationReport(
        campaign="theorem2", model_name=model.name, trials=total,
        passes=total - len(failures), failures=failures,
        thresholds_used={"chain_threshold": delta, "eps_cap": cap, "eq_tol": campaigns._EQ_TOL})
