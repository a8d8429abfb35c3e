"""Commuting families of real symmetric matrices.

Joint spectra, kernels, principal-angle subspace intersections, and the
perturbation thresholds that control when ``Ker(A + eps*B)`` collapses
to ``Ker A ∩ Ker B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CommutationViolation,
    ConvergenceFailure,
    DimensionMismatch,
    GmlInputError,
    check_step_sizes,
)

# Fixed seed for the random mixing combination inside joint_diagonalize,
# so repeated calls on the same family give bit-identical output.
_MIX_SEED = 0x5EEDED
# Principal angles below this (as 1 - cosine) count as zero in intersections.
_ANGLE_TOL = 1e-9
# Kernel equality holds when the two kernels' projectors are this close.
HOLDS_TOL = 1e-8


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, bit for bit ``np.linalg.norm(x, "fro")`` (its own code
    path, an overflowing dot warning as there) without its overhead."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _entry_scale(entries: np.ndarray) -> float:
    return float(np.abs(entries).max()) if entries.size else 0.0


def _zero_tol(a: "SymMat") -> float:
    """Threshold below which an eigenvalue of this matrix counts as zero."""
    return 1e-12 * a._scale


def _canonical_sign_columns(cols: np.ndarray) -> np.ndarray:
    """Flip column signs so the (first) largest-magnitude entry of each is
    positive.  Returns C order: a basis's layout picks the BLAS path, and so
    the last bits, of every product with it."""
    lead = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    return np.ascontiguousarray(cols * np.where(lead < 0, -1.0, 1.0))  # exact: a sign flip or none


@dataclass(frozen=True, eq=False)
class SymMat:
    """Dense real symmetric matrix with a validated symmetry defect.

    The entries must be finite with a symmetry defect of at most
    ``1e-10 * max(1, max |entry|)``; they are stored symmetrized as
    ``m/2 + m.T/2``, which is bitwise symmetric."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)  # read only: half + half_t is stored
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise GmlInputError(f"expected a nonempty square matrix, got shape {m.shape}")
        scale = _entry_scale(m)  # NaN or infinite when some entry is not finite
        if not math.isfinite(scale):
            raise GmlInputError("matrix entries must be finite")
        half, half_t = m / 2.0, m.T / 2.0  # halved first: m - m.T and m + m.T can overflow
        tol = 1e-10 * max(1.0, scale)
        defect = 2.0 * float(np.abs(half - half_t).max())
        if defect > tol:
            raise GmlInputError(f"matrix is not symmetric: max asymmetry {defect:.3e} > tol {tol:.3e}")
        m = half + half_t
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _scale(self) -> float:
        """Largest |entry|, computed once: the zero thresholds of the kernel
        rules scale with it."""
        return _entry_scale(self.entries)

    @classmethod
    def diag(cls, values) -> "SymMat":
        return cls(np.diag(np.asarray(values, dtype=float)))


def commutator_norm(a: SymMat, b: SymMat) -> float:
    """Frobenius norm of ``AB - BA``."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    prod = a.entries @ b.entries
    return _fro(prod - prod.T)


def _pair_comm_tol(a: SymMat, b: SymMat, unit: float = 1.0) -> float:
    """The commutation rule: ``|[A,B]|_F`` may reach ``1e-10 * max(unit,
    |A|_F |B|_F)``."""
    return 1e-10 * max(unit, _fro(a.entries) * _fro(b.entries))


def _binary_exponent(entries: np.ndarray) -> int:
    """e with largest |entry| in [2^(e-1), 2^e): scaling by 2^-e is exact
    and brings it into [0.5, 1)."""
    return int(np.frexp(_entry_scale(entries))[1])


def _scaled_commutator(a: SymMat, b: SymMat) -> tuple[float, float]:
    """``|[A,B]|_F`` and its tolerance, both times ``2^-(ea+eb)``, from the
    members scaled by ``2^-ea`` and ``2^-eb`` (``_binary_exponent``), whose
    product cannot overflow."""
    ea, eb = _binary_exponent(a.entries), _binary_exponent(b.entries)
    a_s, b_s = SymMat(np.ldexp(a.entries, -ea)), SymMat(np.ldexp(b.entries, -eb))
    return commutator_norm(a_s, b_s), _pair_comm_tol(a_s, b_s, math.ldexp(1.0, -(ea + eb)))


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """Tuple of symmetric matrices with pairwise commutators below tolerance
    (``_pair_comm_tol``)."""

    members: tuple[SymMat, ...]

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
                with np.errstate(over="ignore", invalid="ignore"):  # decided scaled below
                    tol, nrm = _pair_comm_tol(a, b), commutator_norm(a, b)
                scaled = not (math.isfinite(nrm) and math.isfinite(tol))
                if scaled:  # the products overflow: check the pair scaled by powers of two
                    nrm, tol = _scaled_commutator(a, b)
                if not nrm <= tol:
                    raise CommutationViolation(
                        f"members {i} and {j} do not commute: |[A,B]| = {nrm:.3e} > tol {tol:.3e}"
                        + (" (both scaled by a power of two)" if scaled else ""))
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


def _require_orthonormal(cols: np.ndarray) -> None:
    """The orthonormality rule: ``|Q^T Q - I|`` at most 1e-9 in every entry."""
    if cols.shape[1]:  # an empty basis passes, at no cost
        gram = cols.T @ cols
        gram.ravel()[::cols.shape[1] + 1] -= 1.0  # Q^T Q - I, a fresh C-order product
        defect = float(np.abs(gram).max())
        if defect > 1e-9:
            raise ValueError(f"basis is not orthonormal: defect {defect:.3e}")


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
        _require_orthonormal(q)
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
        _require_orthonormal(b)
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


def _eig_clusters(eigvals: np.ndarray) -> list[slice]:
    """Slices of a nonempty ascending eigenvalue list, split at gaps larger
    than ``1e-8 * max(1, max |eigenvalue|)``.  Gaps are compared halved,
    which is exact and cannot overflow; a dozen values take float
    arithmetic, with the bits of the array form, faster than numpy calls."""
    w = eigvals.tolist()
    half_tol = 1e-8 * max(1.0, -w[0], w[-1]) / 2
    cuts = [0, *(i for i in range(1, len(w)) if w[i] / 2 - w[i - 1] / 2 > half_tol), len(w)]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def _hstack(parts: list[np.ndarray]) -> np.ndarray:
    """``np.hstack(parts)``; one part, a C-order product, is returned as is."""
    return parts[0] if len(parts) == 1 else np.hstack(parts)


def _refine(mats: list[np.ndarray], basis: np.ndarray) -> np.ndarray:
    """Recursively split ``basis`` into joint eigenspaces of ``mats``."""
    if basis.shape[1] <= 1 or not mats:
        return basis
    half = (basis.T @ mats[0] @ basis) / 2.0
    w, v = np.linalg.eigh(half + half.T)  # (a + a.T) / 2 without its overflow
    return _hstack([_refine(mats[1:], basis @ v[:, s]) for s in _eig_clusters(w)])


@lru_cache(maxsize=None)
def _mix_coeffs(count: int) -> np.ndarray:
    """Unit coefficients of joint_diagonalize's mixing combination of
    ``count`` members, drawn once per count from ``_MIX_SEED``."""
    coeffs = np.random.default_rng(_MIX_SEED).standard_normal(count)
    coeffs /= np.linalg.norm(coeffs)
    coeffs.flags.writeable = False
    return coeffs


def _joint_spectrum(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``joint_diagonalize``'s kernel on the member arrays of a commuting
    family: the certified basis, checked orthonormal, and its levels."""
    # the certificate decides whatever overflows on the way: a huge mix, a norm
    with np.errstate(over="ignore", invalid="ignore"):
        mix = np.zeros_like(arrays[0])  # from zeros, as sum() adds: a -0.0 term gives 0.0
        for c, a in zip(_mix_coeffs(len(arrays)), arrays):
            mix += c * a
        # The first level refines the identity: mix is bitwise symmetric, so
        # half + half is the symmetrized eye.T @ mix @ eye bit for bit (a
        # subnormal entry's rounding included), and eye @ v[:, s] is v[:, s].
        half = mix / 2.0
        w, v = np.linalg.eigh(half + half)
        clusters = _eig_clusters(w)
        q = v if len(clusters) == w.size else _hstack(
            [v[:, s] if s.stop - s.start == 1 else _refine(arrays, np.ascontiguousarray(v[:, s]))
             for s in clusters])
        levels = np.vstack([(q.T @ a @ q).diagonal() for a in arrays])
        # descending lexicographic order on eigenvalue tuples (first member primary)
        order = np.lexsort(np.flipud(levels))[::-1]
        q = _canonical_sign_columns(q[:, order])
        levels = levels[:, order]
        for k, a in enumerate(arrays):
            diff = a - (q * levels[k]) @ q.T
            residual, size, e = _fro(diff), _fro(a), 0
            if not (math.isfinite(residual) and math.isfinite(size)):
                # a norm overflowed: compare both sides times 2^-e, which is exact
                e = _binary_exponent(a)
                residual, size = _fro(np.ldexp(diff, -e)), _fro(np.ldexp(a, -e))
            bound = 1e-10 * max(math.ldexp(1.0, -e), size)
            if not residual <= bound:  # NaN fails too
                raise ConvergenceFailure(f"member {k} not reconstructed: residual {residual:.3e} "
                                         f"> tol {bound:.3e}" + (f" (both times 2^{-e})" if e else ""))
    _require_orthonormal(q)
    return q, levels


def joint_diagonalize(fam: CommutingFamily) -> JointSpectrum:
    """Shared eigenbasis of a commuting family, certified by reconstruction.

    Eigendecomposes a random unit-coefficient combination of the family,
    then refines any repeated-eigenvalue block by recursing on the
    remaining members restricted to that block.  Columns are ordered by
    their eigenvalue tuple, lexicographically descending, which makes the
    output deterministic.  Raises ConvergenceFailure when some member is
    not reconstructed within 1e-10 times its Frobenius norm (at least 1).
    """
    # commutation was checked on construction
    q, levels = _joint_spectrum([m.entries for m in fam.members])
    return JointSpectrum(basis=q, levels=levels)


def _kernel_columns(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The kernel of one ``eigh`` row: its eigenvector columns ``v[:, mask]``,
    sign-canonical and checked orthonormal; ``(n, 0)`` for an empty mask."""
    if not mask.any():
        return np.zeros((v.shape[0], 0))
    cols = _canonical_sign_columns(v[:, mask])
    _require_orthonormal(cols)
    return cols


def kernel(a: SymMat) -> Subspace:
    """Orthonormal basis of the eigenspace with |eigenvalue| <= ``_zero_tol``."""
    w, v = np.linalg.eigh(a.entries)
    return Subspace(a.dim, _kernel_columns(v, np.abs(w) <= _zero_tol(a)))


def _meet(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The principal-angle meet of two orthonormal column sets ``(n, k)`` and
    ``(n, l)``: the left singular vectors of ``U^T V`` whose cosine is at least
    ``1 - _ANGLE_TOL``, mapped by U, orthonormalized by QR, sign-canonical and
    checked orthonormal; ``(n, 0)`` when none is."""
    if u.shape[1] and v.shape[1]:  # else no principal angle at all
        w, s, _ = np.linalg.svd(u.T @ v)
        count = int(np.count_nonzero(s >= 1.0 - _ANGLE_TOL))
        if count:
            q = _canonical_sign_columns(np.linalg.qr(u @ w[:, :count])[0])
            _require_orthonormal(q)
            return q
    return np.zeros((u.shape[0], 0))


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    """Intersection computed from principal angles (singular values of U^T V):
    the span of the left singular vectors whose cosine is >= 1 - _ANGLE_TOL."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch(f"ambient dims differ: {u.ambient_dim} vs {v.ambient_dim}")
    return Subspace(u.ambient_dim, _meet(u.basis, v.basis))


def box_radius(levels: np.ndarray, tol) -> tuple[float, np.ndarray, np.ndarray]:
    """Box kernel: a delta, sufficient but not sharp, such that every row l
    of ``levels (P, k)`` keeps the sign of its leading entry along
    ``l · (1, eps_2, ..., eps_k)`` for all step sizes in ``(0, delta)^(k-1)``.

    Entries with ``|l| <= tol`` (a scalar, or one per slot) do not count.
    The first significant slot is the lead and the significant slots after
    it are the tail.  A lead in slot 0 bounds delta by ``|l_0| / sum |tail|``,
    same-sign entries too (``[1, 1]`` gets 1 though ``1 + eps`` never
    vanishes; the bound is exact when ``ties`` is nonempty); a later lead with some tail entry of opposite sign admits no box at all
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
    with np.errstate(over="ignore"):  # a lead over its tail past the float range is +inf
        bound = np.divide(mag[:, 0], span, where=first,
                          out=np.where(opposed.any(axis=1), 0.0, math.inf))
    delta = float(bound.min(initial=math.inf))
    binding = (bound <= delta * (1.0 + 1e-9)) & (bound < math.inf)
    return delta, binding, binding & first & (opposed == tail).all(axis=1)


def delta_threshold(alpha: SymMat, beta: SymMat) -> float:
    """A safe step size for perturbing ``alpha`` by ``beta``.

    With joint eigenvalue pairs (a_i, b_i), the threshold is
    ``min |a_i| / |b_i|`` over indices where both are nonzero (above
    ``1e-12`` times the largest entry of their matrix), and +infinity
    when no index has both nonzero.  For every 0 < eps < threshold,
    ``Ker(alpha + eps*beta) = Ker alpha ∩ Ker beta``.
    Sufficient, not sharp: the kernel jumps at eps = threshold only when a
    binding pair has opposite signs.
    """
    delta, _ = delta_threshold_witness(alpha, beta)
    return delta


def delta_threshold_witness(alpha: SymMat, beta: SymMat) -> tuple[float, list[tuple[float, float]]]:
    """Threshold plus the joint eigenvalue pairs (a_i, b_i) attaining it."""
    return chain_threshold_witness(CommutingFamily((alpha, beta)))


def chain_threshold_witness(fam: CommutingFamily) -> tuple[float, list[tuple[float, ...]]]:
    """``chain_threshold`` plus the joint level vectors (one level per member)
    attaining it: ``box_radius`` over the family's joint levels, with each
    member's ``_zero_tol`` as its zero threshold.  Trusts the family, whose
    commutation was checked on construction."""
    levels = _joint_spectrum([m.entries for m in fam.members])[1].T
    delta, binding, _ = box_radius(levels, np.array([_zero_tol(m) for m in fam.members]))
    return delta, [tuple(row) for row in levels[binding].tolist()]


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


def kernel_equality_rows(alpha: SymMat, beta: SymMat, eps
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check ``Ker(alpha + eps*beta) == Ker alpha ∩ Ker beta`` at each of
    the step sizes ``eps``, a number (one row) or a 1-D array ``(m,)``.

    The public boundary of ``family_kernel_rows``: raises NonPositiveEpsilon
    for a step size that is not > 0 (NaN included), GmlInputError for any
    other bad eps, and CommutationViolation through the ``CommutingFamily``
    it builds.  Returns ``holds (m,)``, ``dims (m, 3)`` as in
    ``KernelEqualityReport``, and the projector distances ``(m,)``.
    """
    return family_kernel_rows(CommutingFamily((alpha, beta)), check_step_sizes(eps))


def family_kernel_rows(fam: CommutingFamily, eps: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``kernel_equality_rows`` on a pair ``fam = (alpha, beta)`` whose
    commutation was checked on construction.  Trusts its arguments: eps is
    a 1-D float array of finite positive step sizes.

    One ``np.linalg.eigh`` call decomposes the stack ``[alpha, beta,
    alpha + eps_1*beta, ...]``; the shifted matrices are bitwise symmetric,
    as ``SymMat`` entries are, and only a finiteness check (overflow)
    guards them.  Ker alpha and Ker beta are the kernel columns of the
    first two rows, and ``_meet`` meets them by principal angles,
    independently of ``joint_diagonalize``.  Each shifted row keeps its
    kernel columns (|eigenvalue| at most the row's zero threshold) and
    zeroes the others.  The projector distance is the largest |eigenvalue|
    of the difference of the two projectors, and kernel equality holds
    when it is at most ``HOLDS_TOL``; ``dims`` counts the kernel columns
    and the zero principal angles with the intersection.  When the
    intersection is {0}, a row without kernel columns differs from it by
    exactly the zero matrix: distance 0.0 and dims (0, 0, 0), with no
    eigensolve.
    """
    a, b = fam.members
    alpha, beta, scale_a, scale_b = a.entries, b.entries, a._scale, b._scale
    stack = np.empty((eps.size + 2, *alpha.shape))  # the eigh stack, filled in place
    stack[0], stack[1] = alpha, beta
    shifted = stack[2:]
    with np.errstate(over="ignore"):  # an overflowing row is rejected below
        np.multiply(eps[:, None, None], beta, out=shifted)
        shifted += alpha
    if not np.isfinite(shifted).all():
        raise GmlInputError("matrix entries must be finite")
    # A shifted matrix can be numerically zero (exact cancellation at the
    # threshold step size), so its own entry scale is useless as a zero
    # threshold; floor it by the scale of the inputs instead.
    zero_tol = np.empty(eps.size + 2)
    zero_tol[:2] = scale_a, scale_b
    np.maximum(scale_a, eps * scale_b, out=zero_tol[2:])
    zero_tol *= 1e-12
    w, v = np.linalg.eigh(stack)
    mask = np.abs(w) <= zero_tol[:, None]  # (m + 2, n): the kernel columns of each row
    k_int = _meet(_kernel_columns(v[0], mask[0]), _kernel_columns(v[1], mask[1]))
    mask, v = mask[2:], v[2:]
    dims = np.zeros((eps.size, 3), dtype=int)
    mask.sum(axis=1, out=dims[:, 0])
    dist = np.zeros(eps.size)
    # the projector of {0} is zero: then a row without kernel columns is
    # exactly the zero matrix, and subtracting it would change no bit
    rows = slice(None) if k_int.shape[1] else np.flatnonzero(dims[:, 0])
    v = v[rows]
    if len(v):
        vk = v * mask[rows, None, :]  # the other columns zeroed
        proj = vk @ np.swapaxes(v, 1, 2)
        if k_int.shape[1]:
            proj -= k_int @ k_int.T
            # cosines of the principal angles between each kernel and Ker alpha ∩ Ker beta
            cosines = np.linalg.svd(np.swapaxes(vk, 1, 2) @ k_int, compute_uv=False)
            dims[:, 1] = k_int.shape[1]
            (cosines >= 1.0 - _ANGLE_TOL).sum(axis=1, out=dims[:, 2])
        dist[rows] = np.abs(np.linalg.eigvalsh(proj)).max(axis=1)
    return dist <= HOLDS_TOL, dims, dist


def perturbed_kernel_equality(alpha: SymMat, beta: SymMat, eps: float) -> KernelEqualityReport:
    """Check ``Ker(alpha + eps*beta) == Ker alpha ∩ Ker beta`` at one eps."""
    holds, dims, dist = kernel_equality_rows(alpha, beta, [eps])
    return KernelEqualityReport(holds=bool(holds[0]), dims=tuple(dims[0].tolist()),
                                projector_distance=float(dist[0]))


def chain_threshold(fam: CommutingFamily) -> float:
    """Uniform box radius for perturbing member 0 by all later members.

    Returns a delta such that for every choice of step sizes
    eps_2, ..., eps_n in (0, delta), the kernel of
    ``members[0] + sum_k eps_k * members[k]`` equals the joint kernel of
    the whole family.  The bound is ``box_radius`` over the joint level
    vectors, one per joint eigenvector: 0.0 when no uniform box exists,
    +infinity when nothing constrains (always for one member).
    """
    return chain_threshold_witness(fam)[0]


def random_commuting_family(rng: np.random.Generator, dim: int, members: int = 2
                            ) -> CommutingFamily:
    """Commuting family built as Q·diag(levels)·Q^T with one shared random Q.

    Levels are integers in [-5, 5], each zeroed with probability 0.3, so
    commutation holds by construction.
    """
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    mats = []
    for _ in range(members):
        levels = rng.integers(-5, 6, size=dim).astype(float)
        levels[rng.random(dim) < 0.3] = 0.0
        mats.append(SymMat((q * levels) @ q.T))  # SymMat symmetrizes
    return CommutingFamily(tuple(mats))
