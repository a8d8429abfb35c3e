"""Convex hulls of small point sets, robust in degenerate dimensions.

Points are expressed in an orthonormal frame of their affine hull, and
every hull is a list of facet equations in that frame: none for a point,
the two ends for a segment, and in dimension r >= 2 the facets found by
exact enumeration of the r-subsets of the points (``_facets``), which
costs C(N, r) sets of r small determinants for N distinct points and
needs nothing beyond numpy.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# r-subsets are examined this many at a time, so a build's working
# memory stays bounded however large C(N, r) gets
_BLOCK = 4096
# slack of a build: near-duplicate points, the affine rank and facet incidence
_TOL = 1e-9
# slack of a containment query, and of every hull check of the campaigns
HULL_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a cached array read-only, since every caller shares it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _earlier(n: int) -> np.ndarray:
    """(n, n) mask of the pairs [i, j] with j < i."""
    return _frozen(np.tri(n, k=-1, dtype=bool))


def _row_norms(z: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.linalg.norm(z, axis=1) bit for bit: its sum of squares, without
    its wrapper's overhead."""
    return np.sqrt(np.add.reduce(z * z, axis=1, keepdims=keepdims))


def first_representatives(rows: np.ndarray, tol) -> np.ndarray:
    """Index of each row's representative: the first earlier representative
    within ``tol`` (max-abs distance), or the row itself when there is none."""
    n = len(rows)
    close = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2) <= tol
    rep = np.arange(n)
    for i in np.flatnonzero((close & _earlier(n)).any(axis=1)):  # rows with an earlier near row
        hit = np.flatnonzero(close[i, :i] & (rep[:i] == np.arange(i)))
        if hit.size:
            rep[i] = hit[0]
    return rep


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop near-duplicate rows, keeping the first of each."""
    return points[first_representatives(points, tol) == np.arange(len(points))]


@lru_cache(maxsize=None)
def _small_subsets(n: int, r: int) -> np.ndarray:
    return _frozen(np.array(list(itertools.combinations(range(n), r)), dtype=np.intp).reshape(-1, r))


def _subset_blocks(n: int, r: int):
    """The r-subsets of ``range(n)`` in lexicographic order, as index
    arrays of at most ``_BLOCK`` rows; a set that fits one block is built
    once per (n, r)."""
    if math.comb(n, r) <= _BLOCK:
        yield _small_subsets(n, r)
        return
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    while True:
        block = np.fromiter(itertools.islice(combos, _BLOCK * r), dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, r)


def _first_of_each(inc: np.ndarray) -> np.ndarray:
    """Index of the first of each distinct row of a boolean matrix.  Rows
    are compared as packed bytes: ``np.unique(axis=0)`` is several times
    slower on the small matrices of a hull build."""
    packed = np.packbits(inc, axis=1)
    return np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)[1]


def _facets(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Facet kernel for N distinct points ``y (N, r)`` spanning ``R^r``, r >= 2.

    Each affinely independent r-subset spans a hyperplane whose normal is
    the vector of signed cofactor determinants of its r-1 edge vectors
    (the generalized cross product): entry i is ``(-1)^i`` times the
    determinant of the edge matrix without column i, and a block takes
    all its ``B * r`` minors in one ``np.linalg.det`` call.  The
    hyperplane is a facet when every point lies on one side of it within
    ``_TOL * scale``, with ``scale =
    max(1, max |y|)``; the points within that distance are incident to it,
    and subsets with the same incident set give one facet.  A point is a
    vertex when it lies on some facet and no other point lies on every
    facet through it (of points with the same facets, the first counts).
    Returns the vertex indices, the facets as rows ``[normal, offset]``
    with an outward unit normal, ``normal . y + offset <= 0`` inside, and
    their incidence at the vertices (facets x vertices).

    Cofactors grow like ``max |y| ** (r - 1)``, so their squared sizes
    overflow past about ``2 ** (512 / (r - 1))``: beyond ``2 ** (480 //
    (r - 1))`` the points are scaled by the exact power of two that puts
    ``max |y|`` in [1, 2), and the offsets back.  Below it nothing is
    scaled, since ``np.linalg.det`` of scaled minors is not the same bits.
    """
    n, r = y.shape
    top = float(np.abs(y).max())
    e = math.frexp(top)[1] - 1 if top > 2.0 ** (480 // (r - 1)) else 0
    y = np.ldexp(y, -e)
    slack = _TOL * max(1.0, math.ldexp(top, -e))
    minor_cols = np.nonzero(~np.eye(r, dtype=bool))[1].reshape(r, r - 1)  # row i: all but i
    signs = (-1.0) ** np.arange(r)
    equations, inc = np.empty((0, r + 1)), np.empty((0, n), dtype=bool)
    for idx in _subset_blocks(n, r):
        base = y[idx[:, 0]]
        edges = y[idx[:, 1:]] - base[:, None, :]  # (B, r-1, r)
        normal = np.linalg.det(np.swapaxes(edges[:, :, minor_cols], 1, 2)) * signs
        size = np.sqrt(np.einsum("bi,bi->b", normal, normal))
        # affinely dependent subsets span no hyperplane: their cofactors are rounding noise
        ok = size > _TOL * np.sqrt(np.einsum("bki,bki->bk", edges, edges)).prod(axis=1)
        eq = np.empty((np.count_nonzero(ok), r + 1))
        eq[:, :-1] = normal[ok] / size[ok, None]
        eq[:, -1] = -np.einsum("bi,bi->b", eq[:, :-1], base[ok])
        vals = eq[:, :-1] @ y.T + eq[:, -1:]  # (B, N) signed distances
        flip = vals.min(axis=1) >= -slack
        eq[flip] *= -1.0
        keep = flip | (vals.max(axis=1) <= slack)
        equations = np.concatenate([equations, eq[keep]])
        inc = np.concatenate([inc, np.abs(vals[keep]) <= slack])
        first = _first_of_each(inc)
        equations, inc = equations[first], inc[first]
    shared = inc.T.astype(np.intp) @ inc  # (N, N): facets through both points
    deg = shared.diagonal()
    covered = shared == deg[:, None]  # [p, q]: every facet through p passes through q
    # a point does not cover itself, and of two points with the same facets the first counts
    covered &= _earlier(n) | ~covered.T
    verts = np.flatnonzero((deg > 0) & ~covered.any(axis=1))
    equations[:, -1] = np.ldexp(equations[:, -1], e)
    return verts, equations, inc[:, verts]


class Polytope:
    """Convex hull of finitely many points with an irredundant vertex list.

    ``vertices`` is a (k, d) array sorted lexicographically, and row i of
    ``supporting_directions`` (k, d) is a direction whose maximum over the
    hull is attained at vertex i alone: the sum of the normals of the
    facets through it, by the build's facet incidence.  Containment
    and relative-interior queries work in the affine hull of the points,
    so flat polytopes (segments, single points) behave sensibly.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("a polytope needs at least one point")
        uniq = _dedupe(pts, _TOL)
        self._origin = uniq.mean(axis=0)
        centered = uniq - self._origin
        if centered.any():
            scale = max(1.0, float(np.abs(centered).max()))
            # affine rank via SVD of the centered point cloud
            _, svals, vt = np.linalg.svd(centered, full_matrices=False)
            rank = int(np.count_nonzero(svals > _TOL * scale))
            frame = vt[:rank].T  # (d, rank), orthonormal columns
        else:  # one point: all singular values are 0, so the SVD is skipped
            rank, frame = 0, np.empty((uniq.shape[1], 0))
        self._rank = rank
        self._frame = frame
        coords = centered @ self._frame  # (N, rank)
        # a strictly interior point clears every face by more than rounding
        self._margin = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(coords).max(initial=0.0)))
        # facet rows [normal, offset] and their incidence at the vertices: a
        # point has none, a segment its two ends, one through each end
        if rank == 0:
            vert_idx, self._equations, inc = np.array([0]), np.empty((0, 1)), np.empty((0, 1), bool)
        elif rank == 1:
            vert_idx = np.array([int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))])
            lo, hi = coords[vert_idx, 0]
            self._equations, inc = np.array([[-1.0, lo], [1.0, -hi]]), np.eye(2, dtype=bool)
        else:
            vert_idx, self._equations, inc = _facets(coords)
        # report vertices by their exact input coordinates, never by
        # round-tripping through the affine frame
        verts = uniq[vert_idx]
        order = np.lexsort(np.flipud(verts.T))
        self.vertices = _frozen(verts[order])
        # a vertex's direction sums its facets' normals: masked zeros keep np.add.reduce's
        # bits, and the stacked product maps the sums with the bits of frame @ sum
        sums = np.add.reduce(np.where(inc[:, order, None], self._equations[:, None, :-1], 0.0),
                             axis=0)
        self.supporting_directions = _frozen((frame @ sums[:, :, None])[:, :, 0])

    @property
    def dim(self) -> int:
        """Dimension of the affine hull."""
        return self._rank

    def _placement(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per row of an (S, d) array: its distance from the affine hull and
        its largest facet value in the frame (-inf for a point: no facets)."""
        rel = np.asarray(xs, dtype=float) - self._origin
        loc = rel @ self._frame
        residual = _row_norms(rel - loc @ self._frame.T)
        return residual, np.maximum.reduce(self._facet_values(loc), axis=1, initial=-np.inf)

    def contains_batch(self, xs) -> np.ndarray:
        """Per row of an (S, d) array: inside the hull up to ``HULL_TOL``."""
        residual, worst = self._placement(xs)
        return (residual <= HULL_TOL) & (worst <= HULL_TOL)

    def strictly_inside_batch(self, xs) -> np.ndarray:
        """Per row of an (S, d) array: in the relative interior, i.e. inside
        the affine hull (up to ``HULL_TOL``) and beyond every facet by more than
        ``64 * eps * max(1, max |frame coordinate of the points|)``, so
        rounding cannot put a boundary point inside.  A one-point hull has
        no facets and is its own relative interior."""
        residual, worst = self._placement(xs)
        return (residual <= HULL_TOL) & (worst < -self._margin)

    def _facet_values(self, loc: np.ndarray) -> np.ndarray:
        """normal · y + offset per row and facet; <= 0 inside."""
        return loc @ self._equations[:, :-1].T + self._equations[:, -1]

    def contains(self, x) -> bool:
        return bool(self.contains_batch(np.reshape(x, (1, -1)))[0])

    def strictly_inside(self, x) -> bool:
        """Relative-interior test: inside the affine hull and off every face."""
        return bool(self.strictly_inside_batch(np.reshape(x, (1, -1)))[0])

    def supporting_direction(self, vertex_index: int) -> np.ndarray:
        """A direction in ambient coordinates whose maximum over the hull
        is attained at the given vertex (interior of its normal cone): row
        ``vertex_index`` of ``supporting_directions``."""
        return self.supporting_directions[vertex_index]
