"""Commuting symmetric operators: joint spectra, kernels, and step thresholds."""

import math
import warnings

import numpy as np
import pytest

from gml import spectral
from gml import (
    CommutingFamily,
    SymMat,
    chain_threshold,
    commutator_norm,
    delta_threshold,
    joint_diagonalize,
    kernel,
    perturbed_kernel_equality,
    random_commuting_family,
    subspace_intersection,
)
from gml.errors import (
    CommutationViolation,
    ConvergenceFailure,
    DimensionMismatch,
    GmlInputError,
    NonPositiveEpsilon,
)
from gml.rng import open_uniform_array, substream
from gml.spectral import (
    Subspace,
    _canonical_sign_columns,
    box_radius,
    chain_threshold_witness,
    delta_threshold_witness,
    family_kernel_rows,
    kernel_equality_rows,
)

from _oracles import (
    _eigenspace_loop,
    _subspace_intersection_loop,
    box_radius_exact,
    chain_grid_kernel_equality,
    eps_grid_kernel_equality,
    family_kernel_rows_loop,
    joint_diagonalize_loop,
    joint_kernel_dim,
    kernel_dim,
    kernel_equality_loop,
    signed_columns_loop,
)


def span(*vectors):
    cols = np.array(vectors, dtype=float).T
    q, _ = np.linalg.qr(cols)
    return Subspace(cols.shape[0], q)


def proj_close(u, v, tol=1e-9):
    return np.linalg.norm(u.projector() - v.projector(), 2) <= tol


# ---------------------------------------------------------------- commutator


def test_commutator_norm_diagonal_pairs_commute():
    assert commutator_norm(SymMat.diag([1, 2]), SymMat.diag([3, 4])) == 0.0


def test_commutator_norm_hand_value():
    a = SymMat.diag([1, 0])
    b = SymMat([[0, 1], [1, 0]])
    assert abs(commutator_norm(a, b) - math.sqrt(2)) < 1e-15


def test_commutator_norm_self_is_zero():
    a = SymMat([[2, 1], [1, 3]])
    assert commutator_norm(a, a) == 0.0


def test_commutator_norm_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        commutator_norm(SymMat.diag([1, 2]), SymMat.diag([1, 2, 3]))


def test_symmat_rejects_asymmetric_entries():
    with pytest.raises(Exception):
        SymMat([[0, 1], [0, 0]])


def test_symmat_rejects_an_overflowing_asymmetry_without_warning():
    # m - m.T overflows here: the defect is measured on the halved entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GmlInputError, match="not symmetric"):
            SymMat([[1e308, 1e308], [-1e308, 1.0]])


def test_symmat_symmetrizes_near_the_float_limit_without_overflow():
    m = SymMat.diag([1e308, 1.0]).entries
    assert m[0, 0] == 1e308 and m[1, 1] == 1.0
    big = SymMat([[1e308, -1e308], [-1e308, 1e308]]).entries
    assert np.isfinite(big).all()
    # slightly asymmetric input: exactly symmetric output, the bits of (m + m.T) / 2
    raw = np.array([[1.0, 0.1 + 1e-12], [0.1, 2.0]])
    out = SymMat(raw).entries
    assert out.tobytes() == out.T.tobytes() == ((raw + raw.T) / 2.0).tobytes()


def test_family_checks_huge_members_scaled_by_powers_of_two():
    # |AB - BA| overflows (inf - inf = NaN) here, so the pair is checked on
    # members scaled by powers of two: equal members commute, a rotated
    # member does not
    for big in (SymMat.diag([1e308, 1.0]), SymMat.diag([1e200, 1.0])):
        CommutingFamily((big, big))
    tilted = SymMat([[1e200, 1e199], [1e199, 1.0]])
    with pytest.raises(CommutationViolation, match="do not commute.*scaled"):
        CommutingFamily((tilted, SymMat.diag([1e200, 1.0])))


@pytest.mark.parametrize("a, b", [([-1.7e308, 1], [1.7e308, 1]), ([1e308, 0], [-1e308, 1e308]),
                                  ([1e300, 0], [1e300, 1])],
                         ids=["opposite-1.7e308", "1e308-tail", "1e300-pair"])
def test_huge_commuting_pairs_are_decided_without_warning(a, b):
    # the pair check's products, the mixing combination and the certificate
    # overflow on the way; the scaled commutator and the certificate decide
    alpha, beta = SymMat.diag(a), SymMat.diag(b)
    assert delta_threshold(alpha, beta) == 1.0
    holds, dims, _ = kernel_equality_rows(alpha, beta, [1e-3, 0.5, 1.0 - 1e-9])
    assert holds.all()
    assert (dims[:, 0] == dims[:, 1]).all()


def test_family_rejects_noncommuting_members():
    with pytest.raises(CommutationViolation):
        CommutingFamily((SymMat.diag([1, 0]), SymMat([[0, 1], [1, 0]])))


# ---------------------------------------------------- joint diagonalization


def test_joint_diagonalize_already_diagonal():
    fam = CommutingFamily((SymMat.diag([1, 2, 3]), SymMat.diag([4, 5, 6])))
    spectrum = joint_diagonalize(fam)
    # columns sorted by eigenvalue tuple, descending
    assert np.allclose(spectrum.levels, [[3, 2, 1], [6, 5, 4]], atol=1e-12)
    assert np.allclose(np.abs(spectrum.basis), np.eye(3)[:, ::-1], atol=1e-12)


def test_joint_diagonalize_hand_pair():
    fam = CommutingFamily((SymMat([[0, 1], [1, 0]]), SymMat([[1, 1], [1, 1]])))
    spectrum = joint_diagonalize(fam)
    assert np.allclose(spectrum.levels, [[1, -1], [2, 0]], atol=1e-12)
    s = 1 / math.sqrt(2)
    assert np.allclose(np.abs(spectrum.basis), [[s, s], [s, s]], atol=1e-12)
    # reconstruction certificate
    for mat, lv in zip(fam.members, spectrum.levels):
        rebuilt = spectrum.basis @ np.diag(lv) @ spectrum.basis.T
        assert np.linalg.norm(rebuilt - mat.entries) < 1e-12


def test_joint_diagonalize_rejects_noncommuting(monkeypatch):
    # family construction is the gate for the commutation invariant
    with pytest.raises(CommutationViolation):
        CommutingFamily((SymMat.diag([1, 0]), SymMat([[0, 1], [1, 0]])))
    # forcing the family through with a loose tolerance still cannot be
    # certified: no shared basis reconstructs both members
    monkeypatch.setattr(spectral, "_pair_comm_tol", lambda a, b, unit=1.0: 100.0)
    loose = CommutingFamily((SymMat.diag([1, 0]), SymMat([[0, 1], [1, 0]])))
    with pytest.raises(ConvergenceFailure):
        joint_diagonalize(loose)
    # the same at 1e300, where ||a||_F overflows unless scaled
    monkeypatch.setattr(spectral, "_pair_comm_tol", lambda a, b, unit=1.0: math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        loose = CommutingFamily((SymMat.diag([1e300, 0]), SymMat([[0, 1e300], [1e300, 0]])))
        with pytest.raises(ConvergenceFailure):
            joint_diagonalize(loose)


def test_joint_diagonalize_near_the_float_limit():
    # eigenvalues +-sqrt(1.01) * 1e308: symmetrizing and the reconstruction
    # check must not overflow
    fam = CommutingFamily((SymMat([[1e308, 1e307], [1e307, -1e308]]),))
    levels = joint_diagonalize(fam).levels[0]
    want = math.sqrt(1.01) * 1e308
    assert np.allclose(levels / want, [1.0, -1.0], rtol=1e-12, atol=0.0)


def test_joint_diagonalize_splits_opposite_levels_at_the_float_limit():
    # the gap between -1e308 and 1e308 overflows; halved it does not
    fam = CommutingFamily((SymMat.diag([-1e308, 1e308]),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        levels = joint_diagonalize(fam).levels[0]
    assert levels.tolist() == [1e308, -1e308]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_joint_diagonalize_rejects_nan_reconstruction():
    fam = CommutingFamily((SymMat([[1e308, 1e308], [1e308, 1e308]]),))
    with pytest.raises(ConvergenceFailure):
        joint_diagonalize(fam)


def test_joint_diagonalize_recovers_constructed_levels():
    for trial in range(40):
        rng = substream(101, trial)
        dim = int(rng.integers(2, 13))
        members = int(rng.integers(2, 4))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        levels = rng.integers(-5, 6, size=(members, dim)).astype(float)
        fam = CommutingFamily(
            tuple(SymMat(q @ np.diag(lv) @ q.T) for lv in levels))
        spectrum = joint_diagonalize(fam)
        for mat, lv in zip(fam.members, spectrum.levels):
            rebuilt = spectrum.basis @ np.diag(lv) @ spectrum.basis.T
            assert np.linalg.norm(rebuilt - mat.entries) <= 1e-10
        # recovered level columns match the constructed ones as a multiset
        got = sorted(map(tuple, np.round(spectrum.levels.T, 8)))
        want = sorted(map(tuple, levels.T))
        assert got == pytest.approx(want, abs=1e-8)


def test_joint_diagonalize_matches_the_per_cluster_recursion():
    """The first level straight from the mix's eigh, against one recursive
    call per cluster from np.eye(n): equal basis and level bytes on 2,000
    families of dimension 1-12 with 1-3 members and integer levels in
    [-2, 2], so that joint levels repeat.  Every other family shifts some
    columns along a direction the mixing combination cannot see, so that
    distinct joint levels share one mix eigenvalue and split at a deeper
    level, single columns among them; a third are scaled by a random real."""
    rng = substream(131, 0)
    n = 2000
    dims, counts = rng.integers(1, 13, size=n), rng.integers(1, 4, size=n)
    drawn = rng.integers(-2, 3, size=(n, 3, 12)).astype(float)
    shifted = rng.random((n, 12)) < 0.5
    scales = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    # one stacked QR per dimension: random orthogonal bases, consumed in order
    bases = {d: iter(np.linalg.qr(rng.standard_normal((np.count_nonzero(dims == d), d, d)))[0])
             for d in range(1, 13)}
    for trial, (dim, count) in enumerate(zip(dims.tolist(), counts.tolist())):
        levels = drawn[trial, :count, :dim]
        if count > 1 and trial % 2:
            c = spectral._mix_coeffs(count)
            levels[:2, shifted[trial, :dim]] += [[c[1]], [-c[0]]]
        if trial % 3 == 0:
            levels *= scales[trial]
        q = next(bases[dim])
        fam = CommutingFamily(tuple(SymMat((q * lv) @ q.T) for lv in levels))
        got, (want_basis, want_levels) = joint_diagonalize(fam), joint_diagonalize_loop(fam)
        assert got.basis.tobytes() == want_basis.tobytes(), trial
        assert got.levels.tobytes() == want_levels.tobytes(), trial


# -------------------------------------------------------------------- kernel


def test_kernel_of_diagonal():
    k = kernel(SymMat.diag([0, 0, 1]))
    assert k.dim == 2
    assert proj_close(k, span([1, 0, 0], [0, 1, 0]))


def test_kernel_of_zero_matrix_is_full_space():
    k = kernel(SymMat(np.zeros((3, 3))))
    assert k.dim == 3
    assert proj_close(k, Subspace.full(3))


def test_kernel_rank_one_projector():
    k = kernel(SymMat([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert proj_close(k, span([1, -1]))
    assert kernel_dim([[1, 1], [1, 1]]) == 1


def test_kernel_matches_zero_level_joint_vectors():
    for trial in range(20):
        rng = substream(102, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 10)))
        spectrum = joint_diagonalize(fam)
        for mat, lv in zip(fam.members, spectrum.levels):
            zero_cols = spectrum.basis[:, np.abs(lv) <= 1e-9]
            k = kernel(mat)
            assert k.dim == zero_cols.shape[1]
            if k.dim:
                p = zero_cols @ zero_cols.T
                assert np.linalg.norm(k.projector() - p, 2) <= 1e-9


def test_canonical_sign_columns_match_the_column_loop():
    """First max-|entry| of each column made positive, bit for bit, in C
    order whatever the input layout; small integers make ties common."""
    rng = substream(108, 0)
    for _ in range(200):
        cols = rng.integers(-3, 4, size=(int(rng.integers(1, 7)), int(rng.integers(0, 5))))
        cols = cols * rng.choice([1.0, 0.5, 1e-300])
        for arr in (cols, np.asfortranarray(cols)):
            got = _canonical_sign_columns(arr)
            assert got.flags["C_CONTIGUOUS"]
            assert got.tobytes() == signed_columns_loop(arr).tobytes()


# -------------------------------------------------------------- intersection


def _sharing_subspaces(rng, dim):
    """The spans of columns i:k and j: of one random orthogonal matrix
    (i <= j <= k), each basis rotated within its span: they share columns j:k."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    i, j, k = np.sort(rng.integers(0, dim + 1, size=3)).tolist()

    def rotated(cols):
        return Subspace(dim, cols @ np.linalg.qr(rng.standard_normal((cols.shape[1],) * 2))[0])
    return rotated(q[:, i:k]), rotated(q[:, j:])


def test_kernel_and_intersection_match_the_subspace_loops():
    """The wrappers over the array kernels against the loops that build a
    Subspace at every step: equal basis bytes, shape and layout for the
    kernels of 400 random symmetric matrices (zero and full kernels among
    them) and for the intersections of their kernel pairs, of random
    subspace pairs that share columns, and of each subspace with itself."""
    rng = substream(139, 0)
    kinds = {"empty": 0, "full": 0, "equal": 0}
    for trial in range(400):
        dim = int(rng.integers(1, 9))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        levels = rng.integers(-1, 2, size=(2, dim)) * rng.integers(0, 2, size=(2, 1))
        kernels = []
        for lv in levels.astype(float):
            mat = SymMat((q * lv) @ q.T)
            w, v = np.linalg.eigh(mat.entries)
            got, want = kernel(mat), _eigenspace_loop(v, np.abs(w) <= spectral._zero_tol(mat))
            assert got.basis.shape == want.basis.shape, trial
            assert got.basis.flags["C_CONTIGUOUS"] == want.basis.flags["C_CONTIGUOUS"], trial
            assert got.basis.tobytes() == want.basis.tobytes(), trial
            kernels.append(got)
        pairs = [tuple(kernels), _sharing_subspaces(rng, dim), (kernels[0], kernels[0])]
        for u, v in pairs:
            got, want = subspace_intersection(u, v), _subspace_intersection_loop(u, v)
            assert got.basis.shape == want.basis.shape, trial
            assert got.basis.flags["C_CONTIGUOUS"] == want.basis.flags["C_CONTIGUOUS"], trial
            assert got.basis.tobytes() == want.basis.tobytes(), trial
            kinds["empty"] += got.dim == 0
            kinds["full"] += got.dim == dim
            kinds["equal"] += got.dim == u.dim == v.dim > 0
    assert min(kinds.values()) > 200, kinds


def test_intersection_plane_plane_line():
    u = span([1, 0, 0], [0, 1, 0])
    v = span([1, 0, 0], [0, 0, 1])
    w = subspace_intersection(u, v)
    assert w.dim == 1
    assert proj_close(w, span([1, 0, 0]))


def test_intersection_idempotent_and_commutative():
    for trial in range(20):
        rng = substream(103, trial)
        dim = int(rng.integers(2, 8))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        u = Subspace(dim, q[:, : int(rng.integers(1, dim + 1))])
        v = Subspace(dim, q[:, : int(rng.integers(1, dim + 1))])
        assert proj_close(subspace_intersection(u, u), u)
        a = subspace_intersection(u, v)
        b = subspace_intersection(v, u)
        assert a.dim == b.dim
        assert proj_close(a, b)


def test_intersection_disjoint_lines_is_empty():
    w = subspace_intersection(span([1, 0]), span([0, 1]))
    assert w.dim == 0


def test_intersection_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        subspace_intersection(span([1, 0]), span([1, 0, 0]))


# ----------------------------------------------------------- step threshold


def test_delta_threshold_hand_trio():
    a = SymMat.diag([2, 0, 1])
    b = SymMat.diag([1, 3, -1])
    delta = delta_threshold(a, b)
    assert delta == pytest.approx(1.0, abs=1e-12)
    # grid confirmation: equality below, jump exactly at the threshold
    grid = np.linspace(0.05, 0.95, 19)
    assert all(eps_grid_kernel_equality(a.entries, b.entries, grid))
    assert kernel_dim(a.entries + 1.0 * b.entries) > joint_kernel_dim(a.entries, b.entries)


def test_delta_threshold_infinite_when_no_shared_support():
    assert delta_threshold(SymMat.diag([1, 0]), SymMat.diag([0, 1])) == math.inf


def test_delta_threshold_self_pair_is_one():
    a = SymMat([[2, 1], [1, 2]])
    assert delta_threshold(a, a) == pytest.approx(1.0, abs=1e-12)


def test_delta_threshold_witness_reports_minimizing_ratios():
    delta, witness = delta_threshold_witness(SymMat.diag([2, 0, 1]), SymMat.diag([1, 3, -1]))
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert len(witness) == 1
    a_i, b_i = witness[0]
    assert abs(abs(a_i) / abs(b_i) - 1.0) < 1e-9


def test_delta_threshold_random_pairs_certified_by_grid():
    for trial in range(40):
        rng = substream(104, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 13)))
        a, b = fam.members
        delta = delta_threshold(a, b)
        if not math.isfinite(delta):
            grid = rng.uniform(0.1, 25.0, size=6)
        else:
            grid = rng.uniform(0.0, delta * (1 - 1e-9), size=6)
            grid = grid[grid > 0]
        assert all(eps_grid_kernel_equality(a.entries, b.entries, grid))


# -------------------------------------------------- perturbed kernel equality


def test_perturbed_equality_shared_kernel_survives():
    rep = perturbed_kernel_equality(SymMat.diag([0, 0, 1]), SymMat.diag([0, 1, 0]), 0.5)
    assert rep.holds
    assert rep.dims == (1, 1, 1)


def test_perturbed_equality_trivial_kernels():
    rep = perturbed_kernel_equality(SymMat.diag([2, 0, 1]), SymMat.diag([1, 3, -1]), 0.5)
    assert rep.holds
    assert rep.dims == (0, 0, 0)


def test_perturbed_equality_fails_at_threshold():
    rep = perturbed_kernel_equality(SymMat.diag([2, 0, 1]), SymMat.diag([1, 3, -1]), 1.0)
    assert not rep.holds
    assert rep.dims == (1, 0, 0)


def test_perturbed_equality_rejects_nonpositive_eps():
    a = SymMat.diag([1, 0])
    with pytest.raises(NonPositiveEpsilon):
        perturbed_kernel_equality(a, a, 0.0)
    with pytest.raises(NonPositiveEpsilon):
        perturbed_kernel_equality(a, a, -0.5)


def test_kernel_equality_rows_reject_any_bad_step():
    a, b = SymMat.diag([1, 0]), SymMat.diag([0, 2])
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(NonPositiveEpsilon):
            kernel_equality_rows(a, b, [0.5, bad, 0.25])
    # 2 * 1e308 overflows: the shifted stack fails SymMat's finiteness check
    with pytest.raises(GmlInputError), np.errstate(over="ignore"):
        kernel_equality_rows(a, b, [0.5, 1e308])


def test_kernel_equality_rows_rejects_noncommuting_pair():
    with pytest.raises(CommutationViolation, match="members 0 and 1 do not commute"):
        kernel_equality_rows(SymMat.diag([1, 0]), SymMat([[0, 1], [1, 0]]), [0.5])


@pytest.mark.parametrize("eps", [[[0.5, 0.25]], np.full((2, 1), 0.5), "abc", [None], [0.5, "x"],
                                 [[0.5], [0.5, 0.25]], [True], math.inf, [0.5, math.inf],
                                 [0.5, 1e308]],
                         ids=["2-D", "column", "string", "None", "mixed", "ragged", "bool",
                              "inf", "inf-row", "overflow"])
def test_kernel_equality_rows_reject_bad_eps_without_warning(eps):
    a, b = SymMat.diag([1, 0]), SymMat.diag([0, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GmlInputError):
            kernel_equality_rows(a, b, eps)


def test_kernel_equality_rows_take_a_scalar_eps_as_one_row():
    a, b = SymMat.diag([2, 0, 1]), SymMat.diag([1, 3, -1])
    for eps in (0.5, np.float64(0.5), 1):
        holds, dims, dist = kernel_equality_rows(a, b, eps)
        want = kernel_equality_rows(a, b, [float(eps)])
        assert holds.shape == (1,)
        assert [x.tolist() for x in (holds, dims, dist)] == [x.tolist() for x in want]
    with pytest.raises(NonPositiveEpsilon):
        kernel_equality_rows(a, b, 0.0)
    with pytest.raises(NonPositiveEpsilon):
        kernel_equality_rows(a, b, math.nan)


@pytest.mark.parametrize("beta", [[0, 2], [1, 2]], ids=["shared-kernel", "no-shared-kernel"])
def test_kernel_equality_rows_take_no_step_size(beta):
    holds, dims, dist = kernel_equality_rows(SymMat.diag([0, 1]), SymMat.diag(beta), [])
    assert (holds.shape, dims.shape, dist.shape) == ((0,), (0, 3), (0,))
    assert (holds.dtype, dist.dtype) == (bool, float)


def test_symmat_entries_are_bitwise_symmetric():
    """The shifted stack alpha + eps*beta relies on it: it is not symmetrized again."""
    for trial in range(200):
        rng = substream(111, trial)
        n = int(rng.integers(1, 13))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = (q * rng.uniform(-5, 5, n)) @ q.T  # symmetric up to rounding
        for entries in (m, m + 1e-13 * rng.standard_normal((n, n)), np.triu(m) + np.triu(m, 1).T):
            sym = SymMat(entries).entries
            assert np.array_equal(sym, sym.T), trial
            eps = rng.uniform(0.0, 10.0)
            shifted = sym + eps * SymMat(m.T).entries
            assert np.array_equal(shifted, shifted.T), trial


def test_perturbed_kernel_dim_never_below_joint_dim():
    for trial in range(30):
        rng = substream(105, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 10)))
        a, b = fam.members
        for eps in rng.uniform(1e-3, 8.0, size=4):
            rep = perturbed_kernel_equality(a, b, float(eps))
            assert rep.dims[0] >= rep.dims[1]
            assert rep.dims[2] <= min(rep.dims[0], rep.dims[1])


def test_kernel_equality_rows_match_the_per_row_loop():
    """The family-level eigenvalue-mask kernel, on the family the lemma
    campaign passes it, against one orthonormal kernel basis per step size
    (2-norm projector distances), on 1000 random pairs with step sizes
    below, at and above delta: equal verdicts and dimensions, distances
    within 1e-14; the public boundary returns the same arrays."""
    for trial in range(1000):
        rng = substream(109, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 13)))
        alpha, beta = fam.members
        delta = chain_threshold_witness(fam)[0]
        eps = [0.5 * delta, delta, 2.0 * delta] if math.isfinite(delta) else [0.1, 1.0, 10.0]
        holds, dims, dist = family_kernel_rows(fam, np.array(eps))
        want_holds, want_dims, want_dist = kernel_equality_loop(alpha.entries, beta.entries, eps)
        assert holds.tolist() == want_holds, trial
        assert [tuple(row) for row in dims.tolist()] == want_dims, trial
        assert np.all(np.abs(dist - want_dist) <= 1e-14), trial
        public = kernel_equality_rows(alpha, beta, eps)
        assert all(np.array_equal(x, y) for x, y in zip(public, (holds, dims, dist)))


def test_family_kernel_rows_match_the_assembled_body():
    """Preallocated zero thresholds and dims, and no SVD beside an empty
    kernel, against the body that assembled them with concatenate,
    column_stack and full: equal holds, dims and distance bytes on 1,000
    pairs drawn as the lemma campaign draws them, with 10 step sizes below
    delta and the eps = delta row; over 100 pairs have an empty Ker alpha
    or Ker beta.  Over 3,000 rows take the exact-zero path (no kernel
    column, an empty intersection), which the body computes the long way."""
    empty = zero_rows = 0
    for trial in range(1000):
        rng = substream(137, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 13)))
        delta = chain_threshold_witness(fam)[0]
        eps = open_uniform_array(rng, 0.0, delta * (1.0 - 1e-9) if math.isfinite(delta) else 10.0, 10)
        rows = np.append(eps, delta) if math.isfinite(delta) else eps
        result = family_kernel_rows(fam, rows)
        for got, want in zip(result, family_kernel_rows_loop(fam, rows)):
            assert got.dtype == want.dtype and got.shape == want.shape, trial
            assert got.tobytes() == want.tobytes(), trial
        empty += min(kernel(m).dim for m in fam.members) == 0
        zero_rows += np.count_nonzero((result[1][:, :2] == 0).all(axis=1))
    assert empty > 100
    assert zero_rows > 3000, zero_rows


# ------------------------------------------------------------ chain threshold


def box(rows, tol=0.0):
    """box_radius on hand rows, with the masks as plain lists."""
    delta, binding, ties = box_radius(np.array(rows, dtype=float), tol)
    return delta, binding.tolist(), ties.tolist()


def test_chain_threshold_single_member_infinite():
    assert chain_threshold(CommutingFamily((SymMat.diag([1, 2]),))) == math.inf
    assert box([[1], [2]]) == (math.inf, [False, False], [False, False])


def test_chain_threshold_disjoint_supports_infinite():
    fam = CommutingFamily((SymMat.diag([0, 0, 1]), SymMat.diag([0, 1, 0])))
    assert chain_threshold(fam) == math.inf
    assert box([[0, 0], [0, 1], [1, 0]]) == (math.inf, [False] * 3, [False] * 3)
    grid = [(e2,) for e2 in np.linspace(0.1, 8.0, 12)]
    assert all(chain_grid_kernel_equality([m.entries for m in fam.members], grid))


def test_chain_threshold_two_members_reduces_to_pairwise():
    fam = CommutingFamily((SymMat.diag([2, 0, 1]), SymMat.diag([1, 3, -1])))
    assert chain_threshold(fam) == pytest.approx(1.0, abs=1e-12)
    # rows (2, 1) and (1, -1) bound at 2 and 1; only the opposed one ties
    assert box([[2, 1], [0, 3], [1, -1]]) == (1.0, [False, False, True], [False, False, True])
    assert box([[2, 2], [1, -1], [-3, 3]]) == (1.0, [True, True, True], [False, True, True])
    # per-slot tolerances: the tail entry 0.5 does not count against 0.6
    assert box([[2, 0.5], [1, 4]], tol=np.array([0.0, 0.6])) == (0.25, [False, True], [False, False])


def test_chain_threshold_three_members_uniform_box():
    # joint levels per eigenvector are the diagonal triples; the first
    # column (1, -10, -1) forces delta = 1/11
    fam = CommutingFamily((SymMat.diag([1.0]), SymMat.diag([-10.0]), SymMat.diag([-1.0])))
    delta = chain_threshold(fam)
    assert delta == pytest.approx(1 / 11, abs=1e-12)
    assert box([[1, -10, -1]]) == (1 / 11, [True], [True])
    # a tail that partly agrees with the lead binds but cannot tie
    assert box([[1, -10, 1]]) == (1 / 11, [True], [False])
    mats = [m.entries for m in fam.members]
    inside = [(e2, e3)
              for e2 in np.linspace(delta * 0.05, delta * 0.95, 7)
              for e3 in np.linspace(delta * 0.05, delta * 0.95, 7)]
    assert all(chain_grid_kernel_equality(mats, inside))
    # the naive recursive bound 0.1 admits a failing pair inside its box
    assert not all(chain_grid_kernel_equality(mats, [(0.095, 0.05)]))


def test_chain_threshold_zero_when_later_members_can_cancel():
    # leading slot beyond the first member with mixed-sign tail: matched
    # step sizes cancel, so no uniform box exists
    fam = CommutingFamily((SymMat.diag([0.0]), SymMat.diag([1.0]), SymMat.diag([-1.0])))
    assert chain_threshold(fam) == 0.0
    # no box at all, whatever the slot-0 rows allow; nothing ties
    assert box([[0, 1, -1], [1, 1, 1]]) == (0.0, [True, False], [False, False])
    # the zero slot counts as significant once the tolerance is below it
    assert box([[1e-13, 1, -1]], tol=1e-12)[0] == 0.0
    assert box([[1e-13, 1, -1]], tol=1e-14)[0] == pytest.approx(5e-14)
    mats = [m.entries for m in fam.members]
    assert not all(chain_grid_kernel_equality(mats, [(0.25, 0.25)]))


def test_chain_threshold_same_sign_tail_unconstrained():
    fam = CommutingFamily((SymMat.diag([0.0]), SymMat.diag([1.0]), SymMat.diag([1.0])))
    assert chain_threshold(fam) == math.inf
    assert box([[0, 1, 1], [0, -2, -1], [0, 0, 0]]) == (math.inf, [False] * 3, [False] * 3)
    assert box(np.zeros((0, 3))) == (math.inf, [], [])


def test_box_radius_is_sound_and_exact_on_ties():
    """box_radius never exceeds the exact sign-preserving radius (rounded
    to the nearest float) and equals it when some binding row ties.  It is
    not sharp: ``[1, 1]`` gets 1.0 though ``1 + eps`` never vanishes."""
    assert box([[1, 1]]) == (1.0, [True], [False])
    assert box_radius_exact([[1, 1]]) == math.inf
    rng = substream(110, 0)
    tied = 0
    for _ in range(5000):
        rows = rng.integers(-4, 5, size=(int(rng.integers(1, 9)), int(rng.integers(1, 6))))
        delta, _, ties = box_radius(rows.astype(float), 0.0)
        exact = float(box_radius_exact(rows))
        assert delta <= exact, rows.tolist()
        if ties.any():
            assert delta == exact, rows.tolist()
            tied += 1
    assert tied > 500  # the equality branch is exercised (904 of the 5000 sets)


def test_box_radius_past_the_float_range_is_inf():
    # a lead over its tail that overflows bounds nothing, with no numpy
    # warning on the way (the suite makes one an error)
    assert box([[1e308, 0.5]]) == (math.inf, [False], [False])
    assert delta_threshold(SymMat.diag([0.5, 1e308]), SymMat.diag([1, 0.5])) == math.inf


def test_box_radius_sums_an_overflowing_tail_at_unit_scale():
    # a tail that sums past the float range is summed scaled by a power of
    # two, with no numpy warning on the way (the suite makes one an error)
    assert box([[1e308, 1e308, 1e308]]) == box([[1, 1, 1]]) == (0.5, [True], [False])
    assert box([[1e308, -1e308, -1e308], [1, 2, 0]]) == (0.5, [True, True], [True, False])
    # a tail that underflows once scaled still bounds nothing
    assert box([[1e308, -1e-310]]) == (math.inf, [False], [False])


def test_chain_threshold_random_families_certified_by_grid():
    checked = 0
    for trial in range(60):
        rng = substream(106, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 9)), members=3)
        delta = chain_threshold(fam)
        if delta == 0.0 or not math.isfinite(delta):
            continue
        checked += 1
        mats = [m.entries for m in fam.members]
        grid = [tuple(rng.uniform(0, delta * (1 - 1e-9), size=2)) for _ in range(8)]
        grid = [g for g in grid if min(g) > 0]
        assert all(chain_grid_kernel_equality(mats, grid))
    assert checked >= 10


# ------------------------------------------------------------ random families


def test_random_commuting_family_is_exactly_commuting():
    for trial in range(20):
        rng = substream(107, trial)
        fam = random_commuting_family(rng, int(rng.integers(2, 13)))
        a, b = fam.members
        assert commutator_norm(a, b) <= 1e-10 * max(1.0, np.linalg.norm(a.entries))
        # integer levels by construction
        w = np.linalg.eigvalsh(a.entries)
        assert np.allclose(w, np.round(w), atol=1e-9)
