"""Independent re-derivations used to confirm frozen test values.

Every function here avoids the code paths of the package proper:
kernel dimensions come from SVD ranks, hull membership from linear
programming, hull facets from Qhull, and limit supports and speed signs
from direct combinatorics on the weight table.  The loop forms of the
package's array kernels (near-duplicate representatives, trajectory
values, finite-difference probes) are kept here, one row at a time.
"""

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull


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
