"""Convex hulls of small point sets, robust in degenerate dimensions.

Wraps Qhull for full-dimensional input and falls back to direct
enumeration when the points span an affine subspace of dimension 0 or 1
(a single point or a segment), which Qhull refuses to handle.  Qhull
(``scipy.spatial``) is imported at the first full-dimensional build, not
with this module: it takes most of the package's import time, and many
commands never build a hull.
"""

from __future__ import annotations

import numpy as np


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop near-duplicate rows, keeping the first of each."""
    keep: list[int] = []
    for i, p in enumerate(points):
        if all(np.abs(points[j] - p).max() > tol for j in keep):
            keep.append(i)
    return points[keep]


class Polytope:
    """Convex hull of finitely many points with an irredundant vertex list.

    ``vertices`` is a (k, d) array sorted lexicographically.  Containment
    and relative-interior queries work in the affine hull of the points,
    so flat polytopes (segments, single points) behave sensibly.
    """

    def __init__(self, points, tol: float = 1e-9):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("a polytope needs at least one point")
        uniq = _dedupe(pts, tol)
        self._origin = uniq.mean(axis=0)
        centered = uniq - self._origin
        scale = max(1.0, float(np.abs(centered).max()))
        # affine rank via SVD of the centered point cloud
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        rank = int(np.count_nonzero(svals > tol * scale))
        self._rank = rank
        self._frame = vt[:rank].T  # (d, rank), orthonormal columns
        coords = centered @ self._frame  # (N, rank)
        if rank == 0:
            vert_idx = np.array([0])
        elif rank == 1:
            vert_idx = np.array([int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))])
            self._interval = (float(coords[:, 0].min()), float(coords[:, 0].max()))
        else:
            from scipy.spatial import ConvexHull

            qh = ConvexHull(coords)
            vert_idx = np.asarray(qh.vertices, dtype=int)
            self._equations = qh.equations  # rows [normal, offset], normal·y + offset <= 0 inside
        # report vertices by their exact input coordinates, never by
        # round-tripping through the affine frame
        verts = uniq[vert_idx]
        order = np.lexsort(np.flipud(verts.T))
        self.vertices = verts[order]
        self.vertices.flags.writeable = False
        self._vert_local = coords[vert_idx[order]]
        self._tol = tol

    @property
    def dim(self) -> int:
        """Dimension of the affine hull."""
        return self._rank

    def _local(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Rows of an (S, d) array in the affine frame, with each row's
        distance from the affine hull."""
        rel = np.asarray(xs, dtype=float) - self._origin
        loc = rel @ self._frame
        residual = np.linalg.norm(rel - loc @ self._frame.T, axis=1)
        return loc, residual

    def contains_batch(self, xs, tol: float = 1e-9) -> np.ndarray:
        """Per row of an (S, d) array: inside the hull up to tol."""
        loc, residual = self._local(xs)
        ok = residual <= tol
        if self._rank == 1:
            lo, hi = self._interval
            ok &= (lo - tol <= loc[:, 0]) & (loc[:, 0] <= hi + tol)
        elif self._rank >= 2:
            ok &= self._facet_values(loc).max(axis=1) <= tol
        return ok

    def strictly_inside_batch(self, xs, tol: float = 1e-9) -> np.ndarray:
        """Per row of an (S, d) array: in the relative interior, i.e. inside
        the affine hull (up to tol) and off every face.  A one-point hull
        is its own relative interior."""
        loc, residual = self._local(xs)
        ok = residual <= tol
        if self._rank == 1:
            lo, hi = self._interval
            ok &= (lo < loc[:, 0]) & (loc[:, 0] < hi)
        elif self._rank >= 2:
            ok &= self._facet_values(loc).max(axis=1) < 0.0
        return ok

    def _facet_values(self, loc: np.ndarray) -> np.ndarray:
        """normal · y + offset per row and facet; <= 0 inside."""
        return loc @ self._equations[:, :-1].T + self._equations[:, -1]

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(self.contains_batch(np.reshape(x, (1, -1)), tol)[0])

    def strictly_inside(self, x, tol: float = 1e-9) -> bool:
        """Relative-interior test: inside the affine hull and off every face."""
        return bool(self.strictly_inside_batch(np.reshape(x, (1, -1)), tol)[0])

    def supporting_direction(self, vertex_index: int) -> np.ndarray:
        """A direction in ambient coordinates whose maximum over the hull
        is attained at the given vertex (interior of its normal cone)."""
        if self._rank == 0:
            return np.zeros(self.vertices.shape[1])
        v = self._vert_local[vertex_index]
        if self._rank == 1:
            sign = 1.0 if v[0] >= max(self._interval) - self._tol else -1.0
            return sign * self._frame[:, 0]
        vals = self._facet_values(v[None, :])[0]
        incident = np.abs(vals) <= 1e-9 * max(1.0, float(np.abs(self._equations[:, -1]).max()))
        normal = self._equations[incident, :-1].sum(axis=0)
        return self._frame @ normal
