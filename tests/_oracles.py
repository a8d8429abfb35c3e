"""Independent re-derivations used to confirm frozen test values.

Every function here avoids the code paths of the package proper:
kernel dimensions come from SVD ranks, hull membership from linear
programming or, on a segment, from its end parameters, hull facets from
Qhull, and limit supports and speed signs
from direct combinatorics on the weight table.  The loop forms of the
package's array kernels (near-duplicate representatives, trajectory
values, finite-difference probes, perturbed kernels, RK4 steps and the
numeric limit search) are kept here, one row at a time, and box radii are
computed exactly in rationals.  ``orbit_hull_loop``, ``theorem1_loop`` and
``theorem2_loop`` are the exceptions: they keep the package's kernels and
pin only the sampling.  ``orbit_hull_loop`` makes one generator call per
sample of ``orbit_hull_check``, on a hull built afresh; ``theorem1_loop``
opens a substream and draws one ``unit_vector`` per trial; ``theorem2_loop``
runs every theorem2 trial on its own stream, one step size per generator
call, a one-direction basis included.  ``joint_diagonalize_loop`` and
``family_kernel_rows_loop`` also keep the package's helpers and pin only
the order of the calls: one recursive call and one ``basis @ v[:, s]``
per cluster from ``np.eye(n)``; thresholds and ``dims`` assembled by
concatenation, and an empty kernel built and met like any other, so that
tests can compare bytes.  ``ProjPointArray`` and the ``*_limit_array``
functions are the scalar limit path on numpy arrays, as it was before its
one-row steps moved to Python floats, for the same byte comparison.
``supporting_directions_loop`` is the per-vertex supporting-direction
rule a hull used before its build's facet incidence decided it: each
vertex's facets found again from their values there, within a tolerance
of their own.  ``open_uniform_loop`` is the open-interval draw one
generator call at a time, whose values and stream position ``rng.open_uniform`` and
``open_uniform_array`` must replay.  ``ScriptedNormals`` stands in for a
generator, so that the samplers meet chosen draws, null ones among them;
its ``random`` and ``uniform`` read the same script.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from gml import campaigns
from gml import model as mdl
from gml import spectral
from gml.errors import GmlInputError, HorizonExceeded, StepTooLarge, check_step_sizes
from gml.hull import HULL_TOL, Polytope
from gml.model import SUPP_TOL, _unit_rows, flow_rows, gradient_rows, limit_support
from gml.rng import substream, unit_vector


def open_uniform_loop(rng, low: float, high: float) -> float:
    """One uniform draw strictly inside (low, high), redrawn one generator
    call at a time until it lands inside; GmlInputError, before any draw,
    when no float lies inside."""
    if not math.nextafter(low, math.inf) < high:
        raise GmlInputError(f"no float lies strictly inside ({low!r}, {high!r})")
    while True:
        x = float(rng.uniform(low, high))
        if low < x < high:
            return x


class ScriptedNormals:
    """Generator stand-in that hands out a fixed list of normals in order;
    its state is the read position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.bit_generator = self
        self.state = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        """numpy's signature: ``size`` values (one float for None), or as many
        as ``out`` holds, written into it."""
        shape = out.shape if out is not None else () if size is None else size
        n = int(np.prod(shape))
        vals = self.values[self.state:self.state + n].reshape(shape)
        self.state += n
        if out is not None:
            out[...] = vals
            return out
        return float(vals) if size is None else vals

    def random(self):
        """The next scripted value, read as a uniform draw in [0, 1)."""
        self.state += 1
        return float(self.values[self.state - 1])

    def uniform(self, low, high):
        """numpy's one-value rule: ``low + (high - low) * random()``."""
        return low + (high - low) * self.random()


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


def _eig_clusters_loop(eigvals, tol):
    """Slices of an ascending eigenvalue list, split at gaps larger than tol."""
    half = eigvals / 2
    cuts = [0, *(np.flatnonzero(half[1:] - half[:-1] > tol / 2) + 1).tolist(), eigvals.size]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def _refine_loop(mats, basis):
    """Recursively split ``basis`` into joint eigenspaces of ``mats``."""
    if basis.shape[1] <= 1 or not mats:
        return basis
    a = basis.T @ mats[0] @ basis
    a = a / 2.0 + a.T / 2.0  # (a + a.T) / 2 without its overflow
    w, v = np.linalg.eigh(a)
    ctol = 1e-8 * max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    return np.hstack([_refine_loop(mats[1:], basis @ v[:, s])
                      for s in _eig_clusters_loop(w, ctol)])


def joint_diagonalize_loop(fam):
    """The basis and levels of ``spectral.joint_diagonalize`` (without its
    certificate) from one recursive call per cluster: the first level
    refines ``np.eye(n)``, and every cluster forms its own ``basis @ v[:, s]``."""
    arrays = [m.entries for m in fam.members]
    mix = sum(c * a for c, a in zip(spectral._mix_coeffs(len(arrays)), arrays))
    q = _refine_loop([mix, *arrays], np.eye(fam.dim))
    levels = np.vstack([np.diag(q.T @ a @ q) for a in arrays])
    order = np.lexsort(np.flipud(levels))[::-1]
    return spectral._canonical_sign_columns(q[:, order]), levels[:, order]


def _subspace_intersection_loop(u, v):
    """``spectral.subspace_intersection`` with an SVD also when a side is empty."""
    w, s, _ = np.linalg.svd(u.basis.T @ v.basis)
    count = int(np.count_nonzero(s >= 1.0 - spectral._ANGLE_TOL))
    if count == 0:
        return spectral.Subspace.empty(u.ambient_dim)
    q, _ = np.linalg.qr(u.basis @ w[:, :count])
    return spectral.Subspace(u.ambient_dim, spectral._canonical_sign_columns(q))


def _eigenspace_loop(v, mask):
    """``spectral._kernel_columns`` as a Subspace, with the sign rule applied
    also to no column."""
    return spectral.Subspace(v.shape[0], spectral._canonical_sign_columns(v[:, mask]))


def family_kernel_rows_loop(fam, eps):
    """``spectral.family_kernel_rows`` with its zero thresholds and ``dims``
    assembled by ``concatenate``, ``column_stack`` and ``full``, and an empty
    kernel built and met like any other (sign rule, SVD)."""
    alpha, beta = (m.entries for m in fam.members)
    with np.errstate(over="ignore"):
        shifted = alpha + eps[:, None, None] * beta
    if not np.isfinite(shifted).all():
        raise GmlInputError("matrix entries must be finite")
    scale_a, scale_b = spectral._entry_scale(alpha), spectral._entry_scale(beta)
    zero_tol = 1e-12 * np.concatenate([[scale_a, scale_b], np.maximum(scale_a, eps * scale_b)])
    w, v = np.linalg.eigh(np.concatenate([alpha[None], beta[None], shifted]))
    mask = np.abs(w) <= zero_tol[:, None]
    k_int = _subspace_intersection_loop(_eigenspace_loop(v[0], mask[0]),
                                        _eigenspace_loop(v[1], mask[1]))
    mask, v = mask[2:], v[2:]
    vk = v * mask[:, None, :]
    dist = np.abs(np.linalg.eigvalsh(vk @ np.swapaxes(v, 1, 2) - k_int.projector())).max(axis=1)
    cosines = np.linalg.svd(np.swapaxes(vk, 1, 2) @ k_int.basis, compute_uv=False)
    overlap = np.count_nonzero(cosines >= 1.0 - spectral._ANGLE_TOL, axis=1)
    dims = np.column_stack([mask.sum(axis=1), np.full(eps.shape, k_int.dim), overlap])
    return dist <= spectral.HOLDS_TOL, dims, dist


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
    of the support's projected weights built afresh (a full support too):
    the interior directions, then their lengths, then the integer directions."""
    supp = x.support_mask
    poly = Polytope(model.projected_weights[supp])
    d = model.subalgebra_dim

    def speeds(draws):
        return np.reshape(draws, (-1, d)) @ model.ortho_basis @ model.weights.T

    def limit_images(lv):
        lim = np.where(limit_support(lv, supp[None, :]), x.coords, 0.0)
        return gradient_rows(model, _unit_rows(lim))

    dirs = [unit_vector(rng, d) for _ in range(sample_count)]
    lv = speeds([u * rng.uniform(0.0, 0.75) for u in dirs])
    spread = max(float(row[supp].max() - row[supp].min()) for row in lv)
    flowed = flow_rows(lv, min(1.0, 8.0 / spread) if spread > 0.0 else 1.0, x.coords)
    if not poly.strictly_inside_batch(gradient_rows(model, _unit_rows(flowed))).all():
        return False
    for vi, v in enumerate(poly.vertices):
        sd = poly.supporting_direction(vi)
        u = sd if np.linalg.norm(sd) >= 1e-12 else np.ones(d)
        if not np.abs(limit_images(speeds(u))[0] - v).max() <= HULL_TOL:
            return False
    us = np.reshape([rng.integers(-9, 10, size=d).astype(float) for _ in range(sample_count)],
                    (-1, d))
    lv = speeds(us[us.any(axis=1)])
    return bool(poly.contains_batch(limit_images(lv)).all())


def supporting_directions_loop(poly):
    """``poly.supporting_directions`` one vertex at a time: the facets whose
    value at the vertex is within 1e-9 * max(1, largest |offset|) of 0,
    their normals summed by ``np.add.reduce`` and mapped by ``frame @``."""
    eqs, frame = poly._equations, poly._frame
    tol = 1e-9 * max(1.0, float(np.abs(eqs[:, -1]).max(initial=0.0)))
    rows = []
    for v in poly.vertices:
        vals = ((v - poly._origin) @ frame) @ eqs[:, :-1].T + eqs[:, -1]
        rows.append(frame @ np.add.reduce(eqs[np.abs(vals) <= tol, :-1], axis=0))
    return np.array(rows)


def theorem1_loop(model, trials: int, seed: int):
    """The theorem1 campaign's report, one trial at a time: a substream and
    one ``unit_vector`` per trial, certified by ``direction_certificate`` on
    its direction in the subalgebra."""
    failures = []
    for k in range(trials):
        beta = model.ortho_basis.T @ unit_vector(substream(seed, k), model.subalgebra_dim)
        if not mdl.direction_certificate(model, beta):
            failures.append(campaigns._failure(seed, k, {"beta": beta},
                                               {"certified": True}, {"certified": False}))
    return campaigns.VerificationReport(
        campaign="theorem1", model_name=model.name, trials=trials,
        passes=trials - len(failures), failures=failures,
        thresholds_used={"level_tol": "1e-12 * max(1, |levels|)"})


def theorem2_loop(model, trials: int, seed: int, probe_tightness: bool):
    """The theorem2 campaign's report, one trial at a time: a substream per
    trial, one ``open_uniform_loop`` call per step size, and the composed limit
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
        eps = np.array([open_uniform_loop(rng, 0.0, cap) for _ in range(n_eps)])
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


class ProjPointArray:
    """``model.ProjPoint`` as it was before its entry tests moved to Python
    floats: the masked zeroing and the second division always run.  Kept
    verbatim as the bit-for-bit reference of the scalar limit path."""

    __slots__ = ("coords", "support")

    def __init__(self, vec):
        x = np.array(vec, dtype=float).ravel()
        if x.size < 2:
            raise GmlInputError("a projective point needs at least two homogeneous coordinates")
        nrm = math.sqrt(x.dot(x))  # bit for bit np.linalg.norm(x), without its overhead
        if not math.isfinite(nrm) or nrm == 0.0:
            raise GmlInputError("cannot normalize a zero or non-finite vector")
        x = x / nrm
        x[np.abs(x) <= SUPP_TOL] = 0.0
        nrm = math.sqrt(x.dot(x))
        if nrm == 0.0:
            raise GmlInputError("vector has no support above SUPP_TOL")
        x = x / nrm
        supp = x.nonzero()[0]
        if x[supp[0]] < 0:
            x = -x
        x.flags.writeable = False
        object.__setattr__(self, "coords", x)
        object.__setattr__(self, "support", tuple(supp.tolist()))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def dim(self) -> int:
        return self.coords.size

    @property
    def support_mask(self) -> np.ndarray:
        return self.coords != 0.0


def flow_limit_array(model, beta, x):
    """``model.flow_limit`` through the ``limit_support`` kernel on arrays, as
    it was before the one-row rule moved to Python floats (verbatim)."""
    b = model.levels(beta)
    keep = limit_support(b[None, :], model.require_point(x).support_mask[None, :])[0]
    try:
        return ProjPointArray(np.where(keep, x.coords, 0.0))
    except GmlInputError:  # only non-finite speeds keep no coordinate
        raise GmlInputError(f"the speeds {b.tolist()} of beta are not finite; "
                            "use a smaller beta") from None


def composed_limit_array(model, alphas, x):
    """``model.composed_limit`` over ``flow_limit_array`` (verbatim)."""
    a = model.require_basis(alphas)
    out = x
    for row in a:
        out = flow_limit_array(model, row, out)
    return out


def perturbed_limit_array(model, alphas, eps, x):
    """``model.perturbed_limit`` over ``flow_limit_array`` (verbatim)."""
    a = model.require_basis(alphas)
    e = check_step_sizes(eps, a.shape[0] - 1)
    beta = a[0] + (e @ a[1:] if e.size else 0.0)
    return flow_limit_array(model, beta, x)
