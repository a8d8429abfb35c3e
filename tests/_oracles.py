"""Independent re-derivations used to confirm frozen test values.

Every function here avoids the code paths of the package proper:
kernel dimensions come from SVD ranks, hull membership from linear
programming, and limit supports and speed signs from direct
combinatorics on the weight table.
"""

import numpy as np
from scipy.optimize import linprog


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
