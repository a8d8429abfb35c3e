"""Weighted torus actions on real projective space.

A model is a list of integer weight vectors ``lambda_0..lambda_n`` in
R^m together with a subalgebra of acting directions.  A direction
``beta`` scales homogeneous coordinate ``i`` with speed
``<lambda_i, beta>``; everything else (gradient images, flows, flow
limits, fixed components, stabilizers, moment polytopes) follows from
the combinatorics of those speeds, so the closed-form operations here
are exact up to floating-point dots of small integers.

Metric convention: the Riemannian metric on the model is fixed as twice
the round sphere metric on unit representatives.  With that
normalization the gradient of ``x -> <mu(x), beta>`` is exactly the
infinitesimal action field ``beta_X(x) = Bx - <x, Bx> x`` with
``B = diag(<lambda_i, beta>)`` and no extra factor of 1/2, and
``mu(e_i)`` equals the projected weight of coordinate ``i``.  The
finite-difference checks in :mod:`gml.numerics` divide their
round-metric estimates by 2 accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BetaOutsideSubalgebra,
    DependentBasis,
    ExhaustedRetries,
    GmlInputError,
    check_real,
    check_step_sizes,
)
from .hull import HULL_TOL, Polytope, _row_norms, first_representatives
from .rng import substream, unit_vector_array
from .spectral import Subspace, _canonical_sign_columns, box_radius

SUPP_TOL = 1e-13
_UNSCALED_MAX = 2.0 ** 500  # a direction up to this norm is squared as it is
_UNSCALED_MIN_NORM = 2.0 ** -480  # a point of smaller norm may have squares below the normal range
# c of the orbit-hull interior flow time min(1, c / spread): the campaigns plans'
# sampled speed spreads on a support stay below 8, so their flow time stays 1
_INTERIOR_C = 8.0
_POLYTOPE_SAMPLES = 32  # gradient-map images of one moment_polytope_check
_ORBIT_SAMPLES = 16     # interior and integer directions of one orbit_hull_check


def _level_tol(values: np.ndarray, axis: int | None = None):
    """Tie tolerance 1e-12 * max(1, |values|): over all values, or per row
    with ``axis=1``."""
    return 1e-12 * np.maximum(1.0, np.maximum.reduce(np.abs(values), axis=axis, initial=0.0))


class ProjPoint:
    """Point of RP^n as a sign-canonical unit coordinate vector.

    Coordinates at most ``SUPP_TOL`` are zeroed on ingest, so ``support``
    is exactly the set of nonzero coordinates, and the first supported
    coordinate is made positive to pick one representative of {x, -x}.

    The vector is normalized, zeroed and normalized again.  The norms are
    numpy sums; the tests of single entries run on Python floats, which
    compare as float64 does.  Zeroing runs only when it changes a bit (an
    entry at most ``SUPP_TOL`` that is nonzero or -0.0), and the second
    division only when the norm is not exactly 1.0.

    A vector whose squares leave the normal float range (a norm below
    ``_UNSCALED_MIN_NORM`` or an overflowed one) is first scaled by an exact
    power of two that puts its largest entry in [0.5, 1), so ``ProjPoint(2**e
    * v)`` has the bits of ``ProjPoint(v)``.  The norm test decides it, so an
    ordinary vector runs no extra operation.
    """

    __slots__ = ("coords", "support")

    def __init__(self, vec):
        x = np.array(vec, dtype=float).ravel()
        if x.size < 2:
            raise GmlInputError("a projective point needs at least two homogeneous coordinates")
        nrm = math.sqrt(x.dot(x))  # bit for bit np.linalg.norm(x), without its overhead
        if not _UNSCALED_MIN_NORM < nrm < math.inf:  # zero, non-finite, tiny or overflowed
            top = float(np.abs(x).max())
            if not 0.0 < top < math.inf:
                raise GmlInputError("cannot normalize a zero or non-finite vector")
            x = np.ldexp(x, -math.frexp(top)[1])  # exact: the largest entry lands in [0.5, 1)
            nrm = math.sqrt(x.dot(x))
        x /= nrm
        vals = x.tolist()
        supp, zeroing = [], False
        for i, v in enumerate(vals):
            if abs(v) > SUPP_TOL:
                supp.append(i)
            elif v or math.copysign(1.0, v) < 0.0:  # zeroing also makes -0.0 into 0.0
                zeroing = True
        if zeroing:
            x[np.abs(x) <= SUPP_TOL] = 0.0
        nrm = math.sqrt(x.dot(x))
        if nrm == 0.0:
            raise GmlInputError("vector has no support above SUPP_TOL")
        if nrm != 1.0:
            x /= nrm
        if vals[supp[0]] < 0:  # dividing by a norm keeps the sign
            np.negative(x, out=x)
        x.flags.writeable = False
        object.__setattr__(self, "coords", x)
        object.__setattr__(self, "support", tuple(supp))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def dim(self) -> int:
        return self.coords.size

    @property
    def support_mask(self) -> np.ndarray:
        return self.coords != 0.0

    def same_as(self, other: "ProjPoint", tol: float = 1e-12) -> bool:
        """Equality as projective points: identical support and dimension, coords
        within tol."""
        return (self.support == other.support and self.coords.size == other.coords.size
                and max(map(abs, (self.coords - other.coords).tolist())) <= tol)

    def __repr__(self) -> str:
        return f"ProjPoint({np.array2string(self.coords, precision=6)}, support={self.support})"

    @classmethod
    def coordinate(cls, index: int, dim: int) -> "ProjPoint":
        e = np.zeros(dim)
        e[index] = 1.0
        return cls(e)


@dataclass(frozen=True)
class FixedComponent:
    """Connected fixed-point component: a coordinate subspace index set.

    ``level`` is the shared speed ``<lambda_i, beta>`` for a single
    direction, or the tuple of projected weight coordinates when the
    component is fixed by the whole subalgebra.
    """

    indices: tuple[int, ...]
    level: float | tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.indices) - 1


@dataclass(frozen=True, eq=False)
class WeightedModel:
    """Weight vectors plus a distinguished subalgebra of acting directions."""

    name: str
    weights: np.ndarray     # (n+1, m)
    subalgebra: np.ndarray  # (d, m) rows: a basis of the acting directions

    def __post_init__(self):
        w = np.atleast_2d(np.array(self.weights, dtype=float))
        s = np.atleast_2d(np.array(self.subalgebra, dtype=float))
        if w.shape[0] < 2:
            raise ValueError("a model needs at least two homogeneous coordinates")
        if w.shape[1] < 1 or s.shape[1] != w.shape[1]:
            raise ValueError(f"weights ({w.shape}) and subalgebra ({s.shape}) disagree on torus dimension")
        if not (1 <= s.shape[0] <= s.shape[1]):
            raise ValueError(f"subalgebra must have between 1 and {s.shape[1]} basis vectors")
        if not (np.isfinite(w).all() and np.isfinite(s).all()):
            raise GmlInputError("weights and subalgebra entries must be finite")
        if _rank_deficient(s):
            raise ValueError("subalgebra basis is rank deficient")
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "subalgebra", s)

    @property
    def num_coords(self) -> int:
        return self.weights.shape[0]

    @property
    def torus_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def subalgebra_dim(self) -> int:
        return self.subalgebra.shape[0]

    @cached_property
    def ortho_basis(self) -> np.ndarray:
        """Orthonormalized subalgebra basis, rows spanning the same space."""
        q, r = np.linalg.qr(self.subalgebra.T)
        q = q * np.sign(np.diag(r))
        q.flags.writeable = False
        return q.T  # (d, m)

    @cached_property
    def projected_weights(self) -> np.ndarray:
        """Weights in coordinates w.r.t. the orthonormalized subalgebra basis."""
        p = self.weights @ self.ortho_basis.T
        p.flags.writeable = False
        return p  # (n+1, d)

    @cached_property
    def joint_partition(self) -> tuple[tuple[int, ...], ...]:
        """Partition of coordinates by equal projected weight vectors."""
        labels = self.joint_labels
        return tuple(tuple(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1))

    @cached_property
    def joint_labels(self) -> np.ndarray:
        """Index of each coordinate's class in ``joint_partition``."""
        labels = _vector_labels(self.projected_weights)
        labels.flags.writeable = False
        return labels

    @cached_property
    def moment_polytope(self) -> Polytope:
        """Convex hull of the projected weights, built once per model."""
        return Polytope(self.projected_weights)

    @cached_property
    def _vertices_attained(self) -> bool:
        """Is each moment-polytope vertex a projected weight (max-abs within
        1e-12)?  The image of coordinate point e_i is projected weight i
        itself, so ``moment_polytope_check`` needs it; it depends on the
        model only."""
        pw = self.projected_weights
        verts = self.moment_polytope.vertices
        nearest = np.abs(pw[None, :, :] - verts[:, None, :]).max(axis=2).argmin(axis=1)
        return not float(np.abs(pw[nearest] - verts).max()) > 1e-12

    def require_point(self, x: ProjPoint) -> ProjPoint:
        """Return x after checking it has one coordinate per weight."""
        if x.dim != self.num_coords:
            raise GmlInputError(
                f"point has {x.dim} coordinates, expected {self.num_coords}")
        return x

    def validate_direction(self, beta) -> np.ndarray:
        """Return beta as an array after checking it lies in the subalgebra: its
        residual off the subalgebra is at most 1e-9 * max(1, |beta|), at any
        finite size."""
        b = np.asarray(beta, dtype=float).ravel()
        d, m = self.subalgebra.shape
        if b.size != m:
            raise BetaOutsideSubalgebra(f"direction has length {b.size}, expected {m}")
        if d == m:
            return b  # the subalgebra is the whole torus algebra
        s, e = b, 0
        vals = b.tolist()
        if not math.hypot(*vals) <= _UNSCALED_MAX:  # a NaN, an inf, or squares that may overflow
            if not all(map(math.isfinite, vals)):  # before inf * 0 warns
                raise BetaOutsideSubalgebra("direction entries must be finite")
            # test s = b / 2^e, exactly, with the largest entry in [1, 2): no square
            # overflows, and max(1, |s|) = |s| as max(1, |b|) = |b|
            e = math.frexp(max(map(abs, vals)))[1] - 1
            s = np.ldexp(b, -e)
        ss = s.dot(s)
        q = self.ortho_basis
        r = s - q.T @ (q @ s)
        residual = math.sqrt(r.dot(r))  # np.linalg.norm, without its overhead
        if not residual <= 1e-9 * max(1.0, math.sqrt(ss)):
            raise BetaOutsideSubalgebra(
                f"direction lies outside the subalgebra: residual {residual:.3e}"
                + (f" (direction scaled by 2^{-e})" if e else ""))
        return b

    def levels(self, beta) -> np.ndarray:
        """Speeds <lambda_i, beta> of all homogeneous coordinates."""
        return self.weights @ self.validate_direction(beta)

    def finite_levels(self, beta) -> np.ndarray:
        """``levels(beta)`` under the speeds-finite rule (``finite_speeds``),
        with no numpy warning on the way."""
        with np.errstate(over="ignore", invalid="ignore"):
            b = self.levels(beta)
        return finite_speeds(b)

    def require_basis(self, alphas=None) -> np.ndarray:
        """Validate an ordered basis of the subalgebra (default: stored rows)."""
        a = self.subalgebra
        if alphas is None:
            return a
        given = alphas is not a  # the stored rows were checked
        if given:
            a = np.atleast_2d(np.asarray(alphas, dtype=float))
            if not np.isfinite(a).all():
                raise GmlInputError("basis entries must be finite")
        for row in a:
            self.validate_direction(row)
        if a.shape[0] != self.subalgebra_dim:
            raise DependentBasis(
                f"expected {self.subalgebra_dim} basis directions, got {a.shape[0]}")
        if given and _rank_deficient(a):
            raise DependentBasis("directions are linearly dependent")
        return a


def finite_speeds(levels: np.ndarray, row: str = "row") -> np.ndarray:
    """The speeds-finite rule: ``levels``, speeds (n,) or one row of speeds per
    point (N, n), when every speed is finite; else GmlInputError, naming the
    first such row of a stack as ``row`` k ("trial" k for a campaign's trials).
    A blank ``row`` marks unit directions the library drew itself: no row of
    those is the user's, so the error names the model's weights.  On a model
    whose subalgebra is the whole torus algebra, ``validate_direction`` passes a
    NaN direction: this rule stops it."""
    finite = np.isfinite(levels)
    if not finite.all():  # one flat test: a per-row reduction costs more on a stack
        if not row:
            raise GmlInputError("the model's weights are too large: a speed of a sampled "
                                "unit direction is not finite")
        where = f"{row} {int(np.argmin(finite.all(axis=-1)))}: " if levels.ndim == 2 else ""
        raise GmlInputError(f"{where}direction is too large or not finite: a speed is not finite")
    return levels


def _rank(svals: np.ndarray) -> int:
    """The rank rule: the count of singular values (descending, as ``np.linalg.svd``
    returns them, at least one) above 1e-10 * max(1, largest)."""
    return int(np.count_nonzero(svals > 1e-10 * max(1.0, float(svals[0]))))


def _rank_deficient(rows: np.ndarray) -> bool:
    """The full-rank rule for a basis: rows (k, m), k <= m, are dependent when
    ``_rank`` of their singular values is below k."""
    return _rank(np.linalg.svd(rows, compute_uv=False)) < rows.shape[0]


def _vector_labels(rows: np.ndarray) -> np.ndarray:
    """Class index of each row in the canonical partition by (near-)equal rows.

    Each row joins the class of the first representative (lowest index)
    it matches within the tolerance, so near-equal rows stay together
    however a lexicographic sort would interleave other rows between them.
    Classes are numbered in the order of their representatives.
    """
    return np.unique(first_representatives(rows, _level_tol(rows)), return_inverse=True)[1]


def _level_chains(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of (N, n) speeds: coordinates ordered by speed descending
    (stable), the consecutive gaps in that order, and which gaps exceed the
    row's level tolerance.  Runs without such a gap are the speed classes."""
    order = np.argsort(-levels, axis=1, kind="stable")
    ranked = np.take_along_axis(levels, order, axis=1)
    gaps = ranked[:, :-1] - ranked[:, 1:]
    return order, gaps, gaps > _level_tol(levels, axis=1)[:, None]


def limit_support(levels: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """Flow-limit kernel: per row, the argmax-level part of the support.

    ``levels`` (N, n) holds each row's speeds of all coordinates (or one
    (1, n) row shared by all) and ``supp`` (N, n) each row's nonempty
    support mask.  Speeds within the level tolerance of the row's full
    level vector tie, so ties keep the whole argmax class.  Inputs are
    trusted: the public wrappers validate them.
    """
    top = np.maximum.reduce(np.where(supp, levels, -np.inf), axis=1)
    return supp & (levels >= (top - _level_tol(levels, axis=1))[:, None])


def certify_levels(model: WeightedModel, levels: np.ndarray) -> np.ndarray:
    """Certificate kernel: per row of (N, n) speeds, does the speed
    partition equal the joint partition?

    Speed classes chain consecutive sorted speeds within the level
    tolerance.  They equal the joint classes iff no speed class mixes two
    joint classes and both partitions have the same number of classes.
    """
    order, _, breaks = _level_chains(levels)
    labels = model.joint_labels[order]
    mixed = ~breaks & (labels[:, :-1] != labels[:, 1:])
    return ~mixed.any(axis=1) & (breaks.sum(axis=1) + 1 == len(model.joint_partition))


def gradient_rows(model: WeightedModel, z: np.ndarray) -> np.ndarray:
    """Gradient-map images of the points with unit (N, n) representatives z."""
    return (z * z) @ model.projected_weights


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / _row_norms(z, keepdims=True)


def flow_rows(levels: np.ndarray, t: float, z: np.ndarray) -> np.ndarray:
    """Flow kernel: unnormalized representatives of exp(t*B)z for each row
    of (N, n) speeds, from representatives z ((N, n) or one (n,) row).
    Each row is shifted by its top speed on the support of z, so nothing
    overflows."""
    supp = z != 0.0
    tl = t * levels
    top = np.where(supp, tl, -np.inf).max(axis=1, keepdims=True)
    return z * np.exp(np.where(supp, tl - top, 0.0))


def gradient_map(model: WeightedModel, x: ProjPoint) -> np.ndarray:
    """Image of x under the gradient map, in orthonormalized subalgebra
    coordinates: ``mu(x) = sum_i x_i^2 * (projected weight i)``.

    Translating the output by a constant vector is occasionally useful to
    center a fixed point at the origin; that shift is a plain translation
    and not a separate operation here.
    """
    return gradient_rows(model, model.require_point(x).coords[None, :])[0]


def action_field(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Field kernel: Bx - <x, Bx> x for speeds (n,) and one unit representative
    x (n,) or a stack of them (N, n)."""
    bx = levels * x
    # the stacked product gives each row's <x, Bx> with the 1-row dot's bits
    return bx - (x[..., None, :] @ bx[..., :, None])[..., 0] * x


def fundamental_field(model: WeightedModel, beta, x: ProjPoint) -> np.ndarray:
    """Infinitesimal action field beta_X(x) = Bx - <x, Bx> x."""
    return action_field(model.finite_levels(beta), model.require_point(x).coords)


def flow(model: WeightedModel, beta, t: float, x: ProjPoint) -> ProjPoint:
    """Normalized linear flow exp(t*B)x, overflow-safe via max-level shift."""
    t = check_real(t, "flow time t")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite speeds raise below
        b = model.levels(beta)
        rows = flow_rows(b[None, :], t, model.require_point(x).coords)
    try:
        return ProjPoint(rows[0])
    except GmlInputError:  # only t * speeds that overflow leave no finite coordinate
        raise GmlInputError(f"flow time t = {t!r} times the speeds {b.tolist()} is not finite; "
                            "use a smaller |t| or beta") from None


def flow_limit(model: WeightedModel, beta, x: ProjPoint) -> ProjPoint:
    """Limit of the flow: restriction of x to the argmax-level part of
    its support (ties keep the whole argmax class); GmlInputError, naming
    the speeds, when a speed is not finite.

    This is ``limit_support``'s rule for one row on Python floats: the top
    speed over the support, the cut ``top - 1e-12 * max(1, max |speed|)``
    and the comparisons with it are exact float64 operations, so the same
    coordinates are kept, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite speeds raise below
        b = model.levels(beta)
    model.require_point(x)
    speeds = b.tolist()
    if not all(map(math.isfinite, speeds)):
        raise GmlInputError(f"the speeds {speeds} of beta are not finite; use a smaller beta")
    support = x.support
    cut = max([speeds[i] for i in support]) - 1e-12 * max(1.0, max(speeds), -min(speeds))
    vals = x.coords.tolist()
    kept = [0.0] * len(vals)
    for i in support:
        if speeds[i] >= cut:
            kept[i] = vals[i]
    return ProjPoint(kept)


def composed_limit(model: WeightedModel, alphas, x: ProjPoint) -> ProjPoint:
    """Flow limits applied in order along an ordered basis of the subalgebra.

    Equivalently: the restriction of x to the lexicographic argmax of the
    weight-speed tuples over its support.
    """
    a = model.require_basis(alphas)
    out = x
    for row in a:
        out = flow_limit(model, row, out)
    return out


def perturbed_limit(model: WeightedModel, alphas, eps, x: ProjPoint) -> ProjPoint:
    """Flow limit along alphas[0] + sum_k eps[k-1] * alphas[k]."""
    a = model.require_basis(alphas)
    e = check_step_sizes(eps, a.shape[0] - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite direction raises below
        beta = a[0] + (e @ a[1:] if e.size else 0.0)
    return flow_limit(model, beta, x)


def model_chain_threshold(model: WeightedModel, alphas=None) -> float:
    """A uniform box radius delta for the ordered basis ``alphas``.

    For all step sizes eps_2..eps_k in (0, delta), the sign of
    ``d · (1, eps_2, ..., eps_k)`` matches the lexicographic sign of d
    for every weight-difference speed vector d, so the perturbed limit
    along ``alphas[0] + sum eps_k alphas[k]`` equals the composed limit.
    The bound is ``spectral.box_radius`` over the pair speeds (sufficient,
    not sharp): +infinity when no pair constrains, 0.0 when some pair
    admits no uniform box (only nested step choices work for it).
    """
    return model_chain_threshold_witness(model, alphas)[0]


def model_chain_threshold_witness(model: WeightedModel, alphas=None):
    """Threshold plus the binding pairs usable for tie probes.

    Returns ``(delta, pairs)`` where each pair (i, j), i < j, attains the
    finite threshold with every significant later entry opposing the
    leading sign, so setting every step size exactly to delta produces an
    exact speed tie between coordinates i and j.  Pair speeds fall under
    the speeds-finite rule: GmlInputError names the first pair whose
    speeds are not finite.
    """
    a = model.require_basis(alphas)
    i, j = np.triu_indices(model.num_coords, k=1)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite pair speeds raise below
        speeds = (model.weights[i] - model.weights[j]) @ a.T  # (P, k)
    finite = np.isfinite(speeds).all(axis=1)
    if not finite.all():
        p = int(np.argmin(finite))
        raise GmlInputError(f"the pair speeds of coordinates {i[p]} and {j[p]} are not finite; "
                            "use smaller weights")
    delta, _, ties = box_radius(speeds, _level_tol(speeds))
    return delta, list(zip(i[ties].tolist(), j[ties].tolist()))


def fixed_components(model: WeightedModel, beta) -> list[FixedComponent]:
    """Fixed components of one direction: coordinate classes of equal speed,
    ordered by speed descending."""
    b = model.finite_levels(beta)
    order, _, breaks = _level_chains(b[None, :])
    classes = [sorted(g.tolist()) for g in np.split(order[0], np.flatnonzero(breaks[0]) + 1)]
    return [FixedComponent(indices=tuple(g), level=float(b[g[0]])) for g in classes]


def fixed_set_subalgebra(model: WeightedModel) -> list[FixedComponent]:
    """Joint fixed components of the whole subalgebra, each carrying its
    gradient-map value, ordered lexicographically descending."""
    comps = [FixedComponent(indices=g, level=tuple(float(v) for v in model.projected_weights[g[0]]))
             for g in model.joint_partition]
    return sorted(comps, key=lambda c: c.level, reverse=True)


def stabilizer_algebra(model: WeightedModel, x: ProjPoint) -> Subspace:
    """Directions (in orthonormalized subalgebra coordinates) whose flow
    fixes x: the null space of the support's projected weight differences."""
    d = model.subalgebra_dim
    supp = list(model.require_point(x).support)
    if len(supp) == 1:
        return Subspace.full(d)
    rows = model.projected_weights[supp[1:]] - model.projected_weights[supp[0]]
    _, svals, vt = np.linalg.svd(rows)
    basis = vt[_rank(svals):].T  # (d, d-rank)
    return Subspace(d, _canonical_sign_columns(basis))


def direction_certificate(model: WeightedModel, beta) -> bool:
    """True iff the speed partition of beta equals the joint partition,
    i.e. beta separates exactly what the whole subalgebra separates."""
    return bool(certify_levels(model, model.finite_levels(beta)[None, :])[0])


def _first_direction(model: WeightedModel, rng: np.random.Generator, attempts: int, accept):
    """First of ``attempts`` random unit directions in the subalgebra that the row
    kernel ``accept(levels (A, n)) -> (A,) bool`` passes, or None.  One block decides
    all draws; the direction and the generator's position after it are those of a loop
    of ``unit_vector`` draws, as the draws up to the accepted one are replayed.  The
    draws' speeds fall under the speeds-finite rule (``finite_speeds``)."""
    state = rng.bit_generator.state
    u = unit_vector_array(rng, model.subalgebra_dim, attempts)
    # stacked products evaluate each row as B.T @ u does, bit for bit
    beta = (model.ortho_basis.T @ u[:, :, None])[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite speeds raise below
        levels = (model.weights @ beta[:, :, None])[:, :, 0]
    hits = np.flatnonzero(accept(finite_speeds(levels, row="")))
    if not hits.size:
        return None
    rng.bit_generator.state = state
    unit_vector_array(rng, model.subalgebra_dim, hits[0] + 1)
    return beta[hits[0]]


def gapped_direction(model: WeightedModel, rng, min_gap: float = 0.05, attempts: int = 50):
    """Random unit direction in the subalgebra whose speed classes (ties within
    the level tolerance) sit at least ``min_gap`` apart, so that a numerical
    flow tells its fixed components apart; None if ``attempts`` draws fail."""
    def gapped(levels):
        _, gaps, breaks = _level_chains(levels)
        return ~(breaks & (gaps < min_gap)).any(axis=1)
    return _first_direction(model, rng, attempts, gapped)


def deterministic_generic_direction(model: WeightedModel, alphas=None):
    """Deterministic certified direction: alphas[0] + sum eps*alphas[k]
    with every step size set to half the uniform box radius (1.0 when the
    box is unbounded)."""
    a = model.require_basis(alphas)
    delta = model_chain_threshold(model, a)
    if delta == 0.0:
        raise ExhaustedRetries("model admits no uniform step-size box for this basis")
    step = 1.0 if math.isinf(delta) else delta / 2.0
    beta = a[0] + step * a[1:].sum(axis=0) if a.shape[0] > 1 else a[0].copy()
    return beta, direction_certificate(model, beta)


def moment_polytope_check(model: WeightedModel, rng: np.random.Generator) -> bool:
    """Sampled containment plus exact vertex attainment.

    Checks that gradient-map images of 32 random points, drawn from ``rng``,
    lie in the hull of the projected weights (``model.moment_polytope``, up
    to ``HULL_TOL``), and that each hull vertex is attained exactly by the
    corresponding coordinate point.
    """
    z = rng.standard_normal((_POLYTOPE_SAMPLES, model.num_coords))
    holds = bool(model.moment_polytope.contains_batch(gradient_rows(model, _unit_rows(z))).all())
    return holds and model._vertices_attained


def orbit_hull_check(model: WeightedModel, x: ProjPoint, rng: np.random.Generator) -> bool:
    """Orbit-closure image test for the hull of the support's weights.

    (a) gradient-map images of flowed points stay in the relative interior
    of the predicted hull for 16 sampled directions, flowed for ``min(1, 8
    / spread)`` with the largest speed spread of the samples on the support
    (a spread of 0 flows for 1); (b) the flow limit along each vertex's
    supporting direction attains that vertex (within ``HULL_TOL``), and the
    limits along 16 sampled integer directions lie in the hull.  Each part
    draws its samples from ``rng`` as blocks, with the values and generator
    position of one draw per sample, and evaluates them all at once.  A
    full support's hull is the cached moment polytope.
    """
    model.require_point(x)
    supp = x.support_mask
    poly = model.moment_polytope if supp.all() else Polytope(model.projected_weights[supp])
    d = model.subalgebra_dim
    n = _ORBIT_SAMPLES

    def speeds(draws) -> np.ndarray:
        return np.reshape(draws, (-1, d)) @ model.ortho_basis @ model.weights.T

    def limit_images(lv: np.ndarray) -> np.ndarray:
        lim = np.where(limit_support(lv, supp[None, :]), x.coords, 0.0)
        return gradient_rows(model, _unit_rows(lim))

    # (a) interior: moderate |beta| keeps images resolvably off the boundary.
    # Every finite flow time keeps them inside, but once t times the speed spread
    # on the support nears 20 they round onto a facet: t = min(1, c / spread)
    lv = speeds(unit_vector_array(rng, d, n) * rng.uniform(0.0, 0.75, (n, 1)))
    spread = float(np.ptp(lv[:, supp], axis=1).max(initial=0.0))
    flowed = flow_rows(lv, min(1.0, _INTERIOR_C / spread) if spread > 0.0 else 1.0, x.coords)
    if not poly.strictly_inside_batch(gradient_rows(model, _unit_rows(flowed))).all():
        return False
    # (b) each vertex is the limit along its supporting direction; a point's
    # direction is zero, and any direction works for it
    us = poly.supporting_directions if poly.dim else np.ones((1, d))
    if not (np.abs(limit_images(speeds(us)) - poly.vertices).max(axis=1) <= HULL_TOL).all():
        return False
    # sampled integer directions (zero draws skipped) must land inside the predicted hull
    us = rng.integers(-9, 10, size=(n, d)).astype(float)
    lv = speeds(us[us.any(axis=1)])
    return bool(poly.contains_batch(limit_images(lv)).all())


def certified_fraction(model: WeightedModel, trials: int, seed: int) -> float:
    """Fraction of random unit directions whose flow has the joint fixed set.

    Vectorized over one Philox stream keyed by (seed, 0); the campaign
    runner offers the per-trial-substream equivalent for replayable
    failure records.  The speeds fall under the speeds-finite rule
    (``finite_speeds``).
    """
    rng = substream(seed, 0)
    u = _unit_rows(rng.standard_normal((trials, model.subalgebra_dim)))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite speeds raise below
        levels = (u @ model.ortho_basis) @ model.weights.T  # (trials, n+1)
    return float(np.count_nonzero(certify_levels(model, finite_speeds(levels, row="")))) / trials


def random_weighted_model(rng: np.random.Generator, max_coords: int = 10,
                          name: str = "random") -> WeightedModel:
    """Random integer-weight model whose stored basis admits a uniform box.

    The torus dimension is 1 to 4 and weights are integers in [-3, 3].
    Candidate (weights, basis) draws are rejected until every coordinate
    pair admits a uniform step-size box for the stored basis
    (model_chain_threshold > 0), so the composition identity holds on a
    full box rather than only for nested step sizes.
    Falls back to a 2-dimensional subalgebra, which always qualifies.
    """
    for attempt in range(300):
        m = int(rng.integers(1, 5))
        n1 = int(rng.integers(2, max_coords + 1))
        weights = rng.integers(-3, 4, size=(n1, m)).astype(float)
        d = int(rng.integers(1, m + 1)) if attempt < 200 else min(m, 2)
        sub = rng.integers(-2, 3, size=(d, m)).astype(float)
        if _rank_deficient(sub):
            continue
        model = WeightedModel(name=name, weights=weights, subalgebra=sub)
        if model_chain_threshold(model) > 0.0:
            return model
    raise ExhaustedRetries("could not sample a model with a uniform step-size box")
