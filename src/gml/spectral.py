"""Commuting families of real symmetric matrices.

Joint spectra, kernels, principal-angle subspace intersections, and the
perturbation thresholds that control when ``Ker(A + eps*B)`` collapses
to ``Ker A ∩ Ker B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CommutationViolation,
    ConvergenceFailure,
    DimensionMismatch,
    GmlInputError,
    NonPositiveEpsilon,
)

# Fixed seed for the random mixing combination inside joint_diagonalize,
# so repeated calls on the same family give bit-identical output.
_MIX_SEED = 0x5EEDED
# Principal angles below this (as 1 - cosine) count as zero in intersections.
_ANGLE_TOL = 1e-9


def _entry_scale(entries: np.ndarray) -> float:
    return float(np.abs(entries).max()) if entries.size else 0.0


def _zero_tol(entries: np.ndarray) -> float:
    """Threshold below which an eigenvalue of this matrix counts as zero."""
    return 1e-12 * _entry_scale(entries)


def _canonical_sign_columns(cols: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive."""
    out = cols.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col.size and col[int(np.argmax(np.abs(col)))] < 0:
            out[:, j] = -col
    return out


def _symmetrized(m: np.ndarray, sym_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Check a stack ``(..., n, n)`` of nonempty matrices for finite entries
    and a symmetry defect within tolerance, then symmetrize each.

    The default tolerance of a matrix is ``1e-10 * max(1, max |entry|)``.
    Returns the symmetrized stack and the per-matrix tolerances.
    """
    if not np.all(np.isfinite(m)):
        raise GmlInputError("matrix entries must be finite")
    flipped = np.swapaxes(m, -1, -2)
    tol = sym_tol if sym_tol is not None else 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    defect, tol = np.broadcast_arrays(np.abs(m - flipped).max(axis=(-2, -1)), tol)
    bad = np.flatnonzero(defect > tol)
    if bad.size:
        i = bad[0]
        raise GmlInputError(f"matrix is not symmetric: max asymmetry {defect.flat[i]:.3e} "
                            f"> tol {tol.flat[i]:.3e}")
    return m / 2.0 + flipped / 2.0, tol  # (m + flipped) / 2 without its overflow


@dataclass(frozen=True, eq=False)
class SymMat:
    """Dense real symmetric matrix with a validated symmetry defect."""

    entries: np.ndarray
    sym_tol: float | None = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise GmlInputError(f"expected a nonempty square matrix, got shape {m.shape}")
        m, tol = _symmetrized(m, self.sym_tol)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "sym_tol", float(tol))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diag(cls, values) -> "SymMat":
        return cls(np.diag(np.asarray(values, dtype=float)))


def commutator_norm(a: SymMat, b: SymMat) -> float:
    """Frobenius norm of ``AB - BA``."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    prod = a.entries @ b.entries
    return float(np.linalg.norm(prod - prod.T, "fro"))


def _pair_comm_tol(a: SymMat, b: SymMat, unit: float = 1.0) -> float:
    fro = np.linalg.norm(a.entries, "fro") * np.linalg.norm(b.entries, "fro")
    return 1e-10 * max(unit, float(fro))


def _binary_exponent(entries: np.ndarray) -> int:
    """e with largest |entry| in [2^(e-1), 2^e): scaling by 2^-e is exact
    and brings it into [0.5, 1)."""
    return int(np.frexp(_entry_scale(entries))[1])


def _scaled_commutator(a: SymMat, b: SymMat, comm_tol: float | None) -> tuple[float, float]:
    """``|[A,B]|_F`` and its tolerance, both times ``2^-(ea+eb)``, from the
    members scaled by ``2^-ea`` and ``2^-eb`` (``_binary_exponent``), whose
    product cannot overflow."""
    ea, eb = _binary_exponent(a.entries), _binary_exponent(b.entries)
    a_s, b_s = SymMat(np.ldexp(a.entries, -ea)), SymMat(np.ldexp(b.entries, -eb))
    tol = (math.ldexp(comm_tol, -(ea + eb)) if comm_tol is not None
           else _pair_comm_tol(a_s, b_s, math.ldexp(1.0, -(ea + eb))))
    return commutator_norm(a_s, b_s), tol


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """Tuple of symmetric matrices with pairwise commutators below tolerance."""

    members: tuple[SymMat, ...]
    comm_tol: float | None = None

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a commuting family needs at least one member")
        dim = members[0].dim
        for mem in members[1:]:
            if mem.dim != dim:
                raise DimensionMismatch("family members must share one dimension")
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                tol = self.comm_tol if self.comm_tol is not None else _pair_comm_tol(a, b)
                nrm = commutator_norm(a, b)
                scaled = not (math.isfinite(nrm) and math.isfinite(tol))
                if scaled:  # the products overflow: check the pair scaled by powers of two
                    nrm, tol = _scaled_commutator(a, b, self.comm_tol)
                if not nrm <= tol:
                    raise CommutationViolation(
                        f"members {i} and {j} do not commute: |[A,B]| = {nrm:.3e} > tol {tol:.3e}"
                        + (" (both scaled by a power of two)" if scaled else ""))
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@dataclass(frozen=True, eq=False)
class JointSpectrum:
    """Shared orthonormal eigenbasis with per-member eigenvalue rows."""

    basis: np.ndarray   # (dim, dim), columns are joint eigenvectors
    levels: np.ndarray  # (members, dim), levels[k, i] pairs member k with column i

    def __post_init__(self):
        q = np.array(self.basis, dtype=float)
        e = np.array(self.levels, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"basis must be square, got {q.shape}")
        if e.ndim != 2 or e.shape[1] != q.shape[0]:
            raise ValueError(f"levels shape {e.shape} does not match basis {q.shape}")
        defect = float(np.abs(q.T @ q - np.eye(q.shape[0])).max())
        if defect > 1e-9:
            raise ValueError(f"basis is not orthonormal: defect {defect:.3e}")
        q.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "basis", q)
        object.__setattr__(self, "levels", e)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace given by an orthonormal column basis (possibly empty)."""

    ambient_dim: int
    basis: np.ndarray  # (ambient_dim, dim)

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}")
        if b.shape[1]:
            defect = float(np.abs(b.T @ b - np.eye(b.shape[1])).max())
            if defect > 1e-9:
                raise ValueError(f"basis is not orthonormal: defect {defect:.3e}")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim))
        return self.basis @ self.basis.T

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))


def _eig_clusters(eigvals: np.ndarray, tol: float) -> list[slice]:
    """Slices of an ascending eigenvalue list, split at gaps larger than tol.
    Gaps are compared halved, which is exact and cannot overflow."""
    half = eigvals / 2
    cuts = [0, *(np.flatnonzero(half[1:] - half[:-1] > tol / 2) + 1).tolist(), eigvals.size]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def _refine(mats: list[np.ndarray], basis: np.ndarray) -> np.ndarray:
    """Recursively split ``basis`` into joint eigenspaces of ``mats``."""
    if basis.shape[1] <= 1 or not mats:
        return basis
    a = basis.T @ mats[0] @ basis
    a = a / 2.0 + a.T / 2.0  # (a + a.T) / 2 without its overflow
    w, v = np.linalg.eigh(a)
    ctol = 1e-8 * max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    return np.hstack([_refine(mats[1:], basis @ v[:, s]) for s in _eig_clusters(w, ctol)])


def joint_diagonalize(fam: CommutingFamily, tol: float = 1e-10) -> JointSpectrum:
    """Shared eigenbasis of a commuting family, certified by reconstruction.

    Eigendecomposes a random unit-coefficient combination of the family,
    then refines any repeated-eigenvalue block by recursing on the
    remaining members restricted to that block.  Columns are ordered by
    their eigenvalue tuple, lexicographically descending, which makes the
    output deterministic.  Raises ConvergenceFailure when some member is
    not reconstructed within ``tol`` (relative to its Frobenius norm).
    """
    arrays = [m.entries for m in fam.members]  # commutation was checked on construction
    n = fam.dim
    rng = np.random.default_rng(_MIX_SEED)
    coeffs = rng.standard_normal(len(arrays))
    coeffs /= np.linalg.norm(coeffs)
    mix = sum(c * a for c, a in zip(coeffs, arrays))
    q = _refine([mix, *arrays], np.eye(n))
    levels = np.vstack([np.diag(q.T @ a @ q) for a in arrays])
    # descending lexicographic order on eigenvalue tuples (first member primary)
    order = np.lexsort(np.flipud(levels))[::-1]
    q = _canonical_sign_columns(q[:, order])
    levels = levels[:, order]
    for k, a in enumerate(arrays):
        diff = a - (q * levels[k]) @ q.T
        with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
            residual, size, e = float(np.linalg.norm(diff, "fro")), float(np.linalg.norm(a, "fro")), 0
        if not (math.isfinite(residual) and math.isfinite(size)):
            # a norm overflowed: compare both sides times 2^-e, which is exact
            e = _binary_exponent(a)
            residual = float(np.linalg.norm(np.ldexp(diff, -e), "fro"))
            size = float(np.linalg.norm(np.ldexp(a, -e), "fro"))
        bound = tol * max(math.ldexp(1.0, -e), size)
        if not residual <= bound:  # NaN fails too
            raise ConvergenceFailure(f"member {k} not reconstructed: residual {residual:.3e} "
                                     f"> tol {bound:.3e}" + (f" (both times 2^{-e})" if e else ""))
    return JointSpectrum(basis=q, levels=levels)


def _zero_eigenspace(w: np.ndarray, v: np.ndarray, tol: float) -> Subspace:
    """Span of the eigenvectors (columns of v) whose |eigenvalue| is <= tol."""
    return Subspace(v.shape[0], _canonical_sign_columns(v[:, np.abs(w) <= tol]))


def kernel(a: SymMat, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the eigenspace with |eigenvalue| <= tol."""
    if tol is None:
        tol = _zero_tol(a.entries)
    w, v = np.linalg.eigh(a.entries)
    return _zero_eigenspace(w, v, tol)


def _zero_angles(u: Subspace, v: Subspace, tol: float) -> tuple[np.ndarray, int]:
    """Left singular vectors of ``U^T V``, and how many principal angles
    between u and v are zero (cosine >= 1 - tol)."""
    if u.dim == 0 or v.dim == 0:
        return np.zeros((u.dim, 0)), 0
    w, s, _ = np.linalg.svd(u.basis.T @ v.basis)
    return w, int(np.count_nonzero(s >= 1.0 - tol))


def subspace_intersection(u: Subspace, v: Subspace, tol: float = _ANGLE_TOL) -> Subspace:
    """Intersection computed from principal angles (singular values of U^T V)."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch(f"ambient dims differ: {u.ambient_dim} vs {v.ambient_dim}")
    w, count = _zero_angles(u, v, tol)
    if count == 0:
        return Subspace.empty(u.ambient_dim)
    q, _ = np.linalg.qr(u.basis @ w[:, :count])
    return Subspace(u.ambient_dim, _canonical_sign_columns(q))


def box_radius(levels: np.ndarray, tol) -> tuple[float, np.ndarray, np.ndarray]:
    """Box kernel: the largest delta such that every row l of ``levels
    (P, k)`` keeps the sign of its leading entry along ``l · (1, eps_2,
    ..., eps_k)`` for all step sizes in ``(0, delta)^(k-1)``.

    Entries with ``|l| <= tol`` (a scalar, or one per slot) do not count.
    The first significant slot is the lead and the significant slots after
    it are the tail.  A lead in slot 0 bounds delta by ``|l_0| / sum |tail|``;
    a later lead with some tail entry of opposite sign admits no box at all
    (0.0), since matched step sizes cancel; a tail that shares the lead's
    sign constrains nothing.  Returns delta (+infinity when no row
    constrains), ``binding (P,)``, the rows whose bound is within 1e-9
    relative of delta, and ``ties (P,)``, the binding slot-0 rows whose
    whole tail opposes the lead: with every step size at delta they vanish.
    """
    levels = np.asarray(levels, dtype=float)
    mag = np.abs(levels)
    sig = mag > tol
    lead = sig.argmax(axis=1)
    tail = sig & (np.arange(levels.shape[1]) > lead[:, None])
    pos = levels > 0
    opposed = tail & (pos != pos[np.arange(len(pos)), lead][:, None])
    span = (mag * tail).sum(axis=1)
    first = (lead == 0) & (span > 0)
    bound = np.divide(mag[:, 0], span, where=first,
                      out=np.where(opposed.any(axis=1), 0.0, math.inf))
    delta = float(bound.min(initial=math.inf))
    binding = (bound <= delta * (1.0 + 1e-9)) & (bound < math.inf)
    return delta, binding, binding & first & (opposed == tail).all(axis=1)


def delta_threshold(alpha: SymMat, beta: SymMat, tol: float | None = None,
                    comm_tol: float | None = None) -> float:
    """Largest safe step size for perturbing ``alpha`` by ``beta``.

    With joint eigenvalue pairs (a_i, b_i), the threshold is
    ``min |a_i| / |b_i|`` over indices where both are nonzero (above
    ``tol``), and +infinity when no index has both nonzero.  For every
    0 < eps < threshold, ``Ker(alpha + eps*beta) = Ker alpha ∩ Ker beta``.
    """
    delta, _ = delta_threshold_witness(alpha, beta, tol=tol, comm_tol=comm_tol)
    return delta


def delta_threshold_witness(alpha: SymMat, beta: SymMat, tol: float | None = None,
                            comm_tol: float | None = None) -> tuple[float, list[tuple[float, float]]]:
    """Threshold plus the joint eigenvalue pairs (a_i, b_i) attaining it."""
    levels = joint_diagonalize(CommutingFamily((alpha, beta), comm_tol)).levels.T
    tols = [tol if tol is not None else _zero_tol(m.entries) for m in (alpha, beta)]
    delta, binding, _ = box_radius(levels, np.array(tols))
    return delta, [(float(x), float(y)) for x, y in levels[binding]]


@dataclass(frozen=True)
class KernelEqualityReport:
    """Outcome of one perturbed-kernel comparison.

    ``dims`` lists (dim Ker(alpha + eps*beta), dim Ker alpha ∩ Ker beta,
    dim of the overlap of those two); equality of all three is what
    ``holds`` certifies, via the distance between orthogonal projectors.
    """

    holds: bool
    dims: tuple[int, int, int]
    projector_distance: float


def kernel_equality_rows(alpha: SymMat, beta: SymMat, eps, tol: float = 1e-8,
                         kernel_tol: float | None = None, comm_tol: float | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check ``Ker(alpha + eps*beta) == Ker alpha ∩ Ker beta`` at each of
    the step sizes ``eps (m,)``.

    Commutation, ``Ker alpha ∩ Ker beta`` and its projector are computed
    once; the m shifted matrices are validated and eigendecomposed as one
    ``(m, n, n)`` stack.  Returns ``holds (m,)``, ``dims (m, 3)`` as in
    ``KernelEqualityReport``, and the projector distances ``(m,)``.
    """
    eps = np.asarray(eps, dtype=float)
    bad = np.flatnonzero(~(eps > 0))
    if bad.size:
        raise NonPositiveEpsilon(f"eps must be strictly positive, got {eps[bad[0]]}")
    CommutingFamily((alpha, beta), comm_tol)  # raises CommutationViolation
    k_int = subspace_intersection(kernel(alpha, tol=kernel_tol), kernel(beta, tol=kernel_tol))
    p_int = k_int.projector()
    shifted, _ = _symmetrized(alpha.entries + eps[:, None, None] * beta.entries)
    # A shifted matrix can be numerically zero (exact cancellation at the
    # threshold step size), so its own entry scale is useless as a zero
    # threshold; floor it by the scale of the inputs instead.
    if kernel_tol is None:
        shift_tol = 1e-12 * np.maximum(_entry_scale(alpha.entries), eps * _entry_scale(beta.entries))
    else:
        shift_tol = np.full(eps.shape, kernel_tol)
    w, v = np.linalg.eigh(shifted)
    k_pert = [_zero_eigenspace(*row) for row in zip(w, v, shift_tol)]
    dist = np.linalg.norm(np.array([k.projector() for k in k_pert]) - p_int, 2, axis=(1, 2))
    dims = np.array([(k.dim, k_int.dim, _zero_angles(k, k_int, _ANGLE_TOL)[1]) for k in k_pert])
    return dist <= tol, dims, dist


def perturbed_kernel_equality(alpha: SymMat, beta: SymMat, eps: float,
                              tol: float = 1e-8, kernel_tol: float | None = None,
                              comm_tol: float | None = None) -> KernelEqualityReport:
    """Check ``Ker(alpha + eps*beta) == Ker alpha ∩ Ker beta`` at one eps."""
    holds, dims, dist = kernel_equality_rows(alpha, beta, [eps], tol=tol,
                                             kernel_tol=kernel_tol, comm_tol=comm_tol)
    return KernelEqualityReport(holds=bool(holds[0]), dims=tuple(dims[0].tolist()),
                                projector_distance=float(dist[0]))


def chain_threshold(fam: CommutingFamily, tol: float | None = None) -> float:
    """Uniform box radius for perturbing member 0 by all later members.

    Returns a delta such that for every choice of step sizes
    eps_2, ..., eps_n in (0, delta), the kernel of
    ``members[0] + sum_k eps_k * members[k]`` equals the joint kernel of
    the whole family.  The bound is ``box_radius`` over the joint level
    vectors, one per joint eigenvector: 0.0 when no uniform box exists,
    +infinity when nothing constrains (always for one member).
    """
    tols = [tol if tol is not None else _zero_tol(m.entries) for m in fam.members]
    return box_radius(joint_diagonalize(fam).levels.T, np.array(tols))[0]


def random_commuting_family(rng: np.random.Generator, dim: int, members: int = 2,
                            level_range: int = 5, zero_prob: float = 0.3) -> CommutingFamily:
    """Commuting family built as Q·diag(levels)·Q^T with one shared random Q.

    Levels are integers in [-level_range, level_range], zeroed with the
    given probability, so commutation holds by construction.
    """
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    mats = []
    for _ in range(members):
        levels = rng.integers(-level_range, level_range + 1, size=dim).astype(float)
        levels[rng.random(dim) < zero_prob] = 0.0
        a = (q * levels) @ q.T
        mats.append(SymMat((a + a.T) / 2.0))
    return CommutingFamily(tuple(mats))
