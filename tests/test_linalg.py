"""Tests for the sparse/dense linear algebra kernel."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from wavedd.errors import NumericError, SingularityError, StructuralError
from wavedd.linalg import (
    EigenPairs,
    EigenSelection,
    Factorization,
    KrylovConfig,
    csr_from_triplets,
    dense_generalized_eig,
    is_symmetric,
    krylov_solve,
    lu_factorize,
    orthonormalize,
    symmetric_lu,
)
from wavedd.linalg import _is_hermitian


# ---------------------------------------------------------------- triplets


def test_single_entry():
    A = csr_from_triplets(1, 1, [(0, 0, 2 + 0j)])
    assert A.toarray() == pytest.approx(np.array([[2.0 + 0j]]))


def test_duplicates_summed():
    A = csr_from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 1.0)])
    assert A.toarray()[0, 0] == pytest.approx(2.0)


def test_symmetric_flag_passes():
    A = csr_from_triplets(2, 2, [(0, 1, 3j), (1, 0, 3j)])
    dense = A.toarray()
    assert np.abs(dense - dense.T).max() == 0.0
    assert is_symmetric(A)


def test_symmetric_flag_rejects():
    assert not is_symmetric(csr_from_triplets(2, 2, [(0, 1, 3j), (1, 0, -3j)]))


def test_out_of_range_index():
    with pytest.raises(StructuralError):
        csr_from_triplets(2, 2, [(0, 2, 1.0)])
    with pytest.raises(StructuralError):
        csr_from_triplets(2, 2, [(-1, 0, 1.0)])


def test_explicit_zeros_retained():
    A = csr_from_triplets(2, 2, [(0, 1, 0.0), (1, 1, 1.0)])
    assert A.nnz == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                           st.complex_numbers(max_magnitude=10, allow_nan=False,
                                              allow_infinity=False)),
                min_size=1, max_size=30))
def test_triplets_match_dense_accumulation(trips):
    A = csr_from_triplets(6, 6, trips)
    dense = np.zeros((6, 6), dtype=complex)
    for r, c, v in trips:
        dense[r, c] += v
    assert np.allclose(A.toarray(), dense, atol=1e-12)
    # rows sorted strictly increasing
    for i in range(6):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)


# ---------------------------------------------------------------- LU


def _dense_gauss_solve(A, b):
    """Independent dense Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=complex)
    b = np.array(b, dtype=complex)
    n = A.shape[0]
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k:] -= m * A[k, k:]
            b[i] -= m * b[k]
    x = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def test_lu_identity():
    I5 = csr_from_triplets(5, 5, [(i, i, 1.0) for i in range(5)])
    f = lu_factorize(I5)
    b = np.arange(1.0, 6.0)
    assert np.array_equal(f.solve(b), b)


def test_lu_matches_dense_elimination():
    n = 10
    trips = [(i, i, 2.0) for i in range(n)]
    trips += [(i, i + 1, -1.0) for i in range(n - 1)]
    trips += [(i + 1, i, -1.0) for i in range(n - 1)]
    A = csr_from_triplets(n, n, trips)
    f = lu_factorize(A)
    assert f.dtype == np.float64
    for b in (np.ones(n), np.ones(n) + 1j * np.arange(n)):
        x = f.solve(b)
        x_ref = _dense_gauss_solve(A.toarray(), b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-12


def test_lu_singular_raises():
    A = csr_from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SingularityError):
        lu_factorize(A)


def test_lu_tiny_nonzero_pivot_raises():
    """SuperLU factors [[1, 1], [1, 1 + 1e-15]] with a last pivot of about
    1e-15, nonzero but below 1e-14 * max|A|: the pivot rule rejects it, and
    the symmetric-mode SPD test reports the matrix as not SPD."""
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    lu = spla.splu(A.tocsc())
    assert 0 < abs(lu.U.diagonal()).min() <= 1e-14
    with pytest.raises(SingularityError, match="below threshold"):
        lu_factorize(A)
    with pytest.raises(SingularityError, match="below threshold"):
        lu_factorize(A.astype(complex))
    fact, spd = symmetric_lu(A)
    assert fact is not None and not spd


def _laplacian_5pt(m):
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(sp.eye(m), T) + sp.kron(T, sp.eye(m))).tocsr()


@pytest.mark.parametrize("rule", ["lu_factorize", "symmetric_lu"])
def test_factor_holds_no_copy_of_l_and_u(rule):
    """Reading the pivots makes scipy cache CSC copies of L and U on the
    SuperLU object (7.2 MiB for the complex 100 x 100 grid Laplacian, 4.3 MiB
    for the real one in symmetric mode).  The factor rules drop them: under
    0.5 MB of traced memory stays held, the pivots still read from
    ``U.diagonal()``, and a solve matches a fresh ``splu`` to 1e-12."""
    A = _laplacian_5pt(100)
    if rule == "lu_factorize":
        A = (A + 0.5j * sp.eye(A.shape[0])).tocsr()
        kwargs = dict(permc_spec="MMD_AT_PLUS_A")
    else:
        kwargs = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if rule == "lu_factorize":
            fact = lu_factorize(A, ordering="MMD_AT_PLUS_A")
        else:
            fact, spd = symmetric_lu(A)
            assert spd
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.5e6
    ref = spla.splu(A.tocsc(), **kwargs)
    assert np.array_equal(fact._lu.U.diagonal(), ref.U.diagonal())
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x_ref = ref.solve(b)
    assert np.linalg.norm(fact.solve(b) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_lu_unknown_ordering_raises():
    with pytest.raises(StructuralError):
        lu_factorize(sp.eye(3, format="csr"), ordering="AMD")


def test_lu_residual_invariant():
    rng = np.random.default_rng(7)
    n = 40
    A = sp.random(n, n, density=0.2, random_state=3).tocsr()
    A = A + sp.eye(n) * 5.0
    A = A + 1j * sp.random(n, n, density=0.2, random_state=4)
    f = lu_factorize(A)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = f.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


# ---------------------------------------------------------------- Krylov


def _shifted_laplacian(nx, shift):
    """5-point 2D Laplacian minus a complex shift, n = nx^2 unknowns."""
    n = nx * nx
    trips = []
    for j in range(nx):
        for i in range(nx):
            k = j * nx + i
            trips.append((k, k, 4.0 - shift))
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < nx:
                    trips.append((k, jj * nx + ii, -1.0))
    return csr_from_triplets(n, n, trips)


def test_gmres_identity_one_iteration():
    n = 30
    I = csr_from_triplets(n, n, [(i, i, 1.0) for i in range(n)])
    b = np.random.default_rng(0).standard_normal(n)
    x, rep = krylov_solve(I, None, b, KrylovConfig(tol=1e-10))
    assert rep.iterations == 1 and rep.converged
    assert np.allclose(x, b)


def test_gmres_exact_preconditioner_one_iteration():
    n = 10
    A = csr_from_triplets(n, n, [(i, i, float(i + 1)) for i in range(n)])
    Minv = csr_from_triplets(n, n, [(i, i, 1.0 / (i + 1)) for i in range(n)])
    b = np.random.default_rng(1).standard_normal(n)
    x, rep = krylov_solve(A, Minv, b, KrylovConfig(tol=1e-10))
    assert rep.iterations == 1 and rep.converged
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_gmres_exact_inverse_of_general_matrix_one_iteration():
    """M = A (applied through the LU handle) collapses GMRES to 1 iteration."""
    A = _shifted_laplacian(8, 0.7 + 0.3j)
    fact = lu_factorize(A)
    b = np.random.default_rng(9).standard_normal(A.shape[0])
    x, rep = krylov_solve(A, fact, b, KrylovConfig(tol=1e-10))
    assert rep.iterations == 1 and rep.converged


def test_gmres_matches_direct_solve():
    A = _shifted_laplacian(22, 0.5 + 0.4j)  # n = 484
    b = np.zeros(A.shape[0], dtype=complex)
    b[A.shape[0] // 2] = 1.0
    x_lu = lu_factorize(A).solve(b)
    x, rep = krylov_solve(A, None, b, KrylovConfig(tol=1e-6, max_iter=2000))
    assert rep.converged
    assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) < 1e-5


def test_gmres_residual_history_monotone():
    A = _shifted_laplacian(12, 0.3 + 0.2j)
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    _, rep = krylov_solve(A, None, b, KrylovConfig(tol=1e-8, max_iter=400))
    h = np.array(rep.residuals)
    assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))


def test_gmres_restarted_monotone_across_restarts():
    A = _shifted_laplacian(12, 0.3 + 0.2j)
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    _, rep = krylov_solve(A, None, b, KrylovConfig(tol=1e-8, max_iter=600, restart=15))
    h = np.array(rep.residuals)
    assert np.all(h[1:] <= h[:-1] * (1 + 1e-8))


def test_gmres_nan_preconditioner_raises():
    n = 8
    A = csr_from_triplets(n, n, [(i, i, 1.0) for i in range(n)])
    bad = lambda v: v * np.nan
    with pytest.raises(NumericError):
        krylov_solve(A, bad, np.ones(n), KrylovConfig())


def test_cg_spd():
    n = 50
    trips = [(i, i, 3.0) for i in range(n)]
    trips += [(i, i + 1, -1.0) for i in range(n - 1)]
    trips += [(i + 1, i, -1.0) for i in range(n - 1)]
    A = csr_from_triplets(n, n, trips)
    b = np.random.default_rng(4).standard_normal(n)
    x, rep = krylov_solve(A, None, b, KrylovConfig(tol=1e-10, variant="cg", max_iter=300))
    assert rep.converged
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_cg_restarts_when_the_true_residual_fails_the_test():
    """On an SPD matrix with condition 1e4 and tol 1e-13, the recurrence
    residual of CG passes the tolerance before the true residual does: at
    least one true-residual check fails and restarts the recursion (an
    operator apply per iteration, one per check and one for the final
    residual), and the solve still ends within tol of the true residual."""
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    A = Q @ np.diag(np.logspace(0, 4, 30)) @ Q.T
    b = rng.standard_normal(30)
    applies = 0

    def apply_A(v):
        nonlocal applies
        applies += 1
        return A @ v

    x, rep = krylov_solve(apply_A, None, b, KrylovConfig(tol=1e-13, variant="cg"))
    checks = applies - rep.iterations - 1
    assert checks >= 2
    assert rep.converged and rep.final_residual <= 1e-13
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-13


def test_krylov_agrees_with_lu_to_10x_tol():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = 60
        M = sp.random(n, n, density=0.15, random_state=100 + trial)
        A = M + M.T + sp.eye(n) * (4.0 + 0.5j) + 1j * sp.random(n, n, density=0.05,
                                                                random_state=200 + trial)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tol = 1e-8
        x_it, rep = krylov_solve(A, None, b, KrylovConfig(tol=tol, max_iter=500))
        x_lu = lu_factorize(A).solve(b)
        assert rep.converged
        assert np.linalg.norm(x_it - x_lu) / np.linalg.norm(x_lu) <= 10 * tol * np.linalg.cond(A.toarray())


def _complex_symmetric(n, seed):
    """Dense complex symmetric (A = A^T) matrix with a spread spectrum."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.1 * (S + S.T) + np.diag(np.linspace(1.0, 5.0, n) + 0.5j)


def _min_residual(A_op, r0, k):
    """min over y in K_k(A_op, r0) of ||r0 - A_op y||, by dense least squares
    over an explicitly orthonormalized Krylov basis; also returns the
    minimizer."""
    cols = [r0 / np.linalg.norm(r0)]
    for _ in range(k - 1):
        w = A_op @ cols[-1]
        cols.append(w / np.linalg.norm(w))
    Q, _ = np.linalg.qr(np.column_stack(cols))
    c = np.linalg.lstsq(A_op @ Q, r0, rcond=None)[0]
    y = Q @ c
    return np.linalg.norm(r0 - A_op @ y), y


@pytest.mark.parametrize("preconditioned,restart", [(False, None), (True, None), (False, 3)])
def test_gmres_residuals_match_krylov_least_squares_oracle(preconditioned, restart):
    """rep.residuals[k-1] is the minimal residual over the k-th Krylov space
    (K_k(A M^-1, b) with a right preconditioner, and over the current
    restart cycle's space when restarted)."""
    n, k_max = 40, 8
    A = _complex_symmetric(n, 5)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Minv = None
    if preconditioned:
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Minv = np.diag(1.0 / np.diag(A)) + 0.02 * P
    _, rep = krylov_solve(A, Minv, b, KrylovConfig(tol=1e-12, max_iter=k_max,
                                                   restart=restart))
    assert rep.iterations == k_max
    AM = A @ Minv if preconditioned else A
    bnorm = np.linalg.norm(b)
    cycle = restart or k_max
    r0 = b.copy()
    for k in range(1, k_max + 1):
        j = (k - 1) % cycle + 1  # iteration within the current cycle
        ref, y = _min_residual(AM, r0, j)
        assert abs(rep.residuals[k - 1] - ref / bnorm) <= 1e-8 * ref / bnorm
        if j == cycle:
            r0 = r0 - AM @ y  # restart from the cycle's minimizer


def test_gmres_peak_memory_is_basis_plus_few_vectors():
    """The Arnoldi products conjugate the new vector, never a copy of the
    basis: a solve's traced peak stays below its basis and 16 n-vectors."""
    n, max_iter = 20000, 40
    d = np.linspace(1.0, 100.0, n) + 0.1j
    b = np.ones(n, dtype=complex)
    vec = 16 * n
    tracemalloc.start()
    try:
        _, rep = krylov_solve(lambda x: d * x, None, b,
                              KrylovConfig(tol=1e-12, max_iter=max_iter))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations == max_iter
    assert peak < (max_iter + 1) * vec + 16 * vec


def test_zero_rhs_short_circuits():
    A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    x, rep = krylov_solve(A, None, np.zeros(3), KrylovConfig())
    assert rep.converged and rep.iterations == 0
    assert np.all(x == 0)


def test_bad_config_rejected():
    with pytest.raises(StructuralError):
        KrylovConfig(tol=2.0)
    with pytest.raises(StructuralError):
        KrylovConfig(restart=0)
    for max_iter in (0, -3):
        with pytest.raises(StructuralError, match="max_iter must be >= 1"):
            KrylovConfig(max_iter=max_iter)
    with pytest.raises(StructuralError):
        KrylovConfig(variant="bicg")


# ---------------------------------------------------------------- eigensolver


def _every(n):
    """The selection that keeps every finite pair of a pencil of size n."""
    return EigenSelection("re_below", np.inf, n)


def _residual(A, B, pair):
    """||A v - lambda B v||_2 for a pair of the dense pencil (A, B)."""
    return float(np.linalg.norm(A @ pair.vector - pair.value * (B @ pair.vector)))


def test_eig_diagonal():
    pairs = dense_generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3), which=_every(3))
    vals = sorted(p.value.real for p in pairs)
    assert vals == pytest.approx([1.0, 2.0, 3.0])


def test_eig_diagonal_ratio():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    vals = sorted(p.value.real for p in dense_generalized_eig(A, B, which=_every(2)))
    assert vals == pytest.approx([0.5, 2.0])


def _charpoly_roots(A, B):
    """Roots of det(A - lambda B), found by building the characteristic
    polynomial of B^-1 A with the Faddeev-LeVerrier trace recursion and then
    taking companion-matrix roots."""
    C = np.linalg.solve(B, A)
    n = C.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.eye(n)
    for k in range(1, n + 1):
        CM = C @ M
        ck = -np.trace(CM) / k
        coeffs[k] = ck
        M = CM + ck * np.eye(n)
    return np.sort_complex(np.roots(coeffs))


def test_eig_matches_charpoly_oracle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8))
    A = A + A.T
    Bh = rng.standard_normal((8, 8))
    B = Bh @ Bh.T + 8 * np.eye(8)
    pairs = dense_generalized_eig(A, B, which=_every(8))
    got = np.sort_complex(np.array([p.value for p in pairs]))
    ref = _charpoly_roots(A, B)
    assert np.allclose(got, ref, atol=1e-8)


def test_eig_residual_invariant_many_instances():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = rng.integers(2, 7)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = B + B.conj().T + 4 * n * np.eye(n)
        pairs = dense_generalized_eig(A, B, which=_every(n))
        nA, nB = np.linalg.norm(A, "fro"), np.linalg.norm(B, "fro")
        for p in pairs:
            assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-12)
            assert _residual(A, B, p) <= 1e-8 * (nA + abs(p.value) * nB)


def test_eig_selection_rules():
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    B = np.eye(4)
    below = dense_generalized_eig(A, B, which=EigenSelection("re_below", 2.5, 4))
    assert [p.value.real for p in below] == pytest.approx([1.0, 2.0])
    above = dense_generalized_eig(A, B, which=EigenSelection("re_above", 2.5, 4))
    assert [p.value.real for p in above] == pytest.approx([4.0, 3.0])
    top2 = dense_generalized_eig(A, B, which=EigenSelection("re_above", -np.inf, 2))
    assert [p.value.real for p in top2] == pytest.approx([4.0, 3.0])


def test_eig_singular_b_drops_infinite():
    A = np.diag([1.0, 2.0])
    B = np.diag([1.0, 0.0])
    pairs = dense_generalized_eig(A, B, which=_every(2))
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(1.0)


def _allclose_rule(M):
    return np.allclose(M, M.conj().T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(M).max()))


def test_is_hermitian_early_exit_keeps_the_allclose_verdict():
    """The diagonal early exit of ``_is_hermitian`` gives the verdict of the
    plain allclose rule on Hermitian, almost-Hermitian (diagonal or
    off-diagonal defects around the tolerance) and complex-symmetric
    matrices."""
    rng = np.random.default_rng(8)
    near = []
    for n in (1, 2, 5, 30):
        for _ in range(10):
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = X + X.conj().T
            atol = 1e-12 * max(1.0, np.abs(H).max())
            i, j = rng.integers(n, size=2)
            for f in (0.1, 0.49, 0.51, 1.0, 3.0):
                D = H.copy()
                D[i, i] += 1j * f * atol
                O = H.copy()
                O[i, j] += f * atol * (1.0 + 1.0j)
                near += [D, O]
            for M in (H, X + X.T, H.real, X):
                assert _is_hermitian(M) == _allclose_rule(M)
    verdicts = [_is_hermitian(M) for M in near]
    assert verdicts == [_allclose_rule(M) for M in near]
    assert True in verdicts and False in verdicts


def _general_pencil(n=40, seed=9):
    """A complex non-Hermitian A and a Hermitian positive definite B: the
    pencil takes the LU-reduced path of ``dense_generalized_eig``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A, X @ X.conj().T + n * np.eye(n)


def _corrupting_eig(monkeypatch, pick):
    """Patch numpy's eig so that the columns ``pick(w)`` of its eigenvectors
    are replaced by noise, which fails the residual contract; returns the
    list of (w, v) that the patched eig returned."""
    real = np.linalg.eig
    out = []

    def eig(T):
        w, v = real(T)
        cols = pick(w)
        v[:, cols] = np.random.default_rng(0).standard_normal((v.shape[0], len(cols)))
        out.append((w, v))
        return w, v

    monkeypatch.setattr(np.linalg, "eig", eig)
    return out


def test_eig_rejected_pair_is_counted_and_replaced(monkeypatch):
    A, B = _general_pencil()
    clean = dense_generalized_eig(A, B, which=EigenSelection("abs_largest", None, 4))
    assert isinstance(clean, EigenPairs) and clean.rejected == 0
    _corrupting_eig(monkeypatch, lambda w: [int(np.argmax(np.abs(w)))])
    pairs = dense_generalized_eig(A, B, which=EigenSelection("abs_largest", None, 3))
    assert pairs.rejected == 1
    assert [p.value for p in pairs] == [p.value for p in clean[1:]]
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(pairs, clean[1:]))


def test_rejected_batch_is_refilled_from_the_next_pairs(monkeypatch):
    """All m_max pairs of the first batch fail the residual contract: each
    is counted, and the next m_max pairs in rule order take their places,
    bit for bit the pairs of a clean solve."""
    A, B = _general_pencil()
    sel = EigenSelection("abs_largest", None, 4)
    clean = dense_generalized_eig(A, B, which=replace(sel, m_max=8))
    _corrupting_eig(monkeypatch, lambda w: sel.order(w)[:4])
    pairs = dense_generalized_eig(A, B, which=sel)
    assert pairs.rejected == 4 and len(pairs) == 4
    assert [p.value for p in pairs] == [p.value for p in clean[4:8]]
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(pairs, clean[4:8]))


def _old_residual_rule(A, B, w, v, which):
    """The rule that checked the residual of every pair before it selected,
    on eigenvectors in LAPACK's column-major layout."""
    finite = np.isfinite(w)
    w, v = w[finite], v[:, finite]
    nrm = np.linalg.norm(v, axis=0)
    ok = nrm > 0
    w, v = w[ok], v[:, ok] / nrm[ok]
    res = np.linalg.norm(A @ v - (B @ v) * w[None, :], axis=0)
    bound = 1e-8 * (np.linalg.norm(A, "fro") + np.abs(w) * np.linalg.norm(B, "fro"))
    keep = res <= np.maximum(bound, 1e-300)
    w, v = w[keep], v[:, keep]
    idx = np.arange(len(w))
    order = sorted(idx, key=lambda i: (w[i].real, -abs(w[i])))
    rule, threshold, m_max = which
    if rule == "re_below":
        sel = [i for i in order if w[i].real < threshold]
    elif rule == "re_above":
        sel = [i for i in reversed(order) if w[i].real > threshold]
    else:
        sel = sorted(idx, key=lambda i: (-abs(w[i]), -w[i].real))
    return [(complex(w[i]), v[:, i] / np.linalg.norm(v[:, i])) for i in sel[:m_max]]


def _selection(which, n):
    """The ``EigenSelection`` of an oracle triple on a pencil of size n: an
    m_max of None becomes n, which caps nothing."""
    rule, threshold, m_max = which
    return EigenSelection(rule, threshold, n if m_max is None else m_max)


@pytest.mark.parametrize("which", [("re_below", 0.0, None), ("re_above", 0.0, None),
                                   ("re_above", -np.inf, 7), ("abs_largest", None, 7)],
                         ids=["re_below", "re_above", "re_above_capped", "abs_largest"])
def test_lazy_residual_check_selects_the_pairs_of_the_eager_rule(monkeypatch, which):
    """Checking the residual only on the pairs the selection reaches keeps
    exactly the pairs, values and vectors bit for bit, that checking every
    pair and then selecting kept; one pair in three is corrupted."""
    A, B = _general_pencil()
    solved = _corrupting_eig(monkeypatch, lambda w: list(range(0, len(w), 3)))
    pairs = dense_generalized_eig(A, B, which=_selection(which, A.shape[0]))
    w, v = solved[-1]
    ref = _old_residual_rule(A, B, w, np.asfortranarray(v), which)
    assert pairs.rejected > 0 and len(pairs) == len(ref) > 0
    for p, (value, vector) in zip(pairs, ref):
        assert p.value == value
        assert np.array_equal(p.vector, vector)


def test_m_max_stops_the_residual_check_at_the_last_kept_pair(monkeypatch):
    """A threshold rule with m_max = 3 checks no pair past its third kept
    one: the corrupted fifth pair in the rule's order is never reached, so
    nothing is rejected, and the three pairs are those of the eager rule,
    bit for bit."""
    A, B = _general_pencil()
    solved = _corrupting_eig(monkeypatch, lambda w: [int(np.argsort(-w.real, kind="stable")[4])])
    pairs = dense_generalized_eig(A, B, which=EigenSelection("re_above", 0.0, 3))
    w, v = solved[-1]
    assert (w.real > 0.0).sum() > 5
    ref = _old_residual_rule(A, B, w, np.asfortranarray(v), ("re_above", 0.0, None))
    assert pairs.rejected == 0 and len(pairs) == 3
    for p, (value, vector) in zip(pairs, ref[:3]):
        assert p.value == value
        assert np.array_equal(p.vector, vector)


def _operator_pencil(n=80):
    """A real symmetric pencil: A, the tridiagonal [-1, 2 + x_i, -1] with x_i
    spread over [0, 8], given as a LinearOperator, and a sparse SPD
    tridiagonal B, given as the ``symmetric_lu`` factor that carries it; and
    A as a sparse matrix, and the values in descending order from a dense
    solve."""
    x = np.linspace(0.0, 8.0, n) ** 2 / 8.0
    A = sp.diags([-np.ones(n - 1), 2.0 + x, -np.ones(n - 1)], [-1, 0, 1], format="csr")
    B = sp.diags([-0.3 * np.ones(n - 1), 2.0 * np.ones(n), -0.3 * np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    values = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)[::-1]
    return spla.aslinearoperator(A), symmetric_lu(B)[0], A, values


@pytest.mark.parametrize("rule,above,m_max,ks,count", [
    ("re_above", 6, 20, [4, 8], 6),     # k grows 4 -> 8, and 8 hold all 6
    ("re_above", 10, 6, [4, 6], 6),     # k grows 4 -> 6 = m_max, the cap
    ("re_above", 2, 20, [4], 2),
])
def test_operator_pencil_is_solved_by_arpack(monkeypatch, rule, above, m_max, ks, count):
    """Under "re_above" ARPACK starts at k = 4 and doubles k while all k
    values pass the threshold, up to m_max.  The pairs are those of the
    dense solve of the same pencil."""
    op, B, A, values = _operator_pencil()
    threshold = 0.5 * (values[above - 1] + values[above])
    which = EigenSelection(rule, threshold, m_max)
    calls = []
    real = spla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    pairs = dense_generalized_eig(op, B, which=which)
    assert calls == ks and not pairs.fallback and pairs.rejected == 0
    dense = dense_generalized_eig(A.toarray(), B.matrix.toarray(), which=which)
    assert len(pairs) == len(dense) == count
    for p, q in zip(pairs, dense):
        assert abs(p.value - q.value) <= 1e-10 * abs(q.value)
        assert abs(abs(p.vector @ q.vector) - 1.0) <= 1e-10


@pytest.mark.parametrize("n,which", [
    (30, EigenSelection("re_above", 4.0, 20)),   # too small for ncv = 41 at m_max
    (80, EigenSelection("re_below", 1.0, 20)),   # a rule ARPACK does not serve
    (80, EigenSelection("abs_largest", None, 3)),
])
def test_operator_pencil_outside_arpack_takes_the_dense_path(monkeypatch, n, which):
    """A pencil too small for ARPACK, or under another rule, is densified
    and solved by the dense path, without a flag."""
    op, B, A, _ = _operator_pencil(n)
    monkeypatch.setattr(spla, "eigsh", None)  # any call would fail
    pairs = dense_generalized_eig(op, B, which=which)
    dense = dense_generalized_eig(A.toarray(), B.matrix.toarray(), which=which)
    assert not pairs.fallback and len(pairs) == len(dense) > 0
    for p, q in zip(pairs, dense):
        assert abs(p.value - q.value) <= 1e-10 * abs(q.value)


def test_operator_pencil_with_an_unfactored_right_side_takes_the_dense_path(monkeypatch):
    """ARPACK takes B only as a ``Factorization``: a bare sparse B under
    "re_above" is densified and solved by the dense path, without a flag."""
    op, B, A, values = _operator_pencil()
    monkeypatch.setattr(spla, "eigsh", None)  # any call would fail
    which = EigenSelection("re_above", 0.5 * (values[5] + values[6]), 20)
    pairs = dense_generalized_eig(op, B.matrix, which=which)
    dense = dense_generalized_eig(A.toarray(), B.matrix.toarray(), which=which)
    assert not pairs.fallback and len(pairs) == len(dense) == 6
    for p, q in zip(pairs, dense):
        assert abs(p.value - q.value) <= 1e-10 * abs(q.value)


def test_operator_pencil_with_m_max_zero_selects_nothing():
    op, B, _, _ = _operator_pencil()
    assert dense_generalized_eig(op, B, which=EigenSelection("re_above", 0.0, 0)) == []


@pytest.mark.parametrize("failure", ["no_convergence", "residual"])
def test_arpack_failure_is_solved_densely_and_flagged(monkeypatch, failure):
    """ARPACK that does not converge, or returns a pair past the residual
    contract, sends the pencil to the dense path, and ``fallback`` says so."""
    op, B, A, values = _operator_pencil()
    real = spla.eigsh

    def failing(*args, **kwargs):
        if failure == "no_convergence":
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        w, V = real(*args, **kwargs)
        V[:, -1] = 1.0  # not an eigenvector
        return w, V

    monkeypatch.setattr(spla, "eigsh", failing)
    which = EigenSelection("re_above", 0.5 * (values[2] + values[3]), 20)
    pairs = dense_generalized_eig(op, B, which=which)
    dense = dense_generalized_eig(A.toarray(), B.matrix.toarray(), which=which)
    assert pairs.fallback and not dense.fallback and pairs.rejected == 0
    assert [p.value for p in pairs] == [q.value for q in dense]


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_sparse_pencil_is_solved_as_its_dense_arrays(kind):
    """A pencil of sparse matrices, or a real one whose B is passed as a
    ``Factorization`` carrying it, gives the pairs of its densified arrays,
    bit for bit."""
    _, B, A, values = _operator_pencil(60)
    B = B.matrix
    if kind == "complex":
        n = A.shape[0]
        A = (A + 1j * sp.diags(np.linspace(0.0, 1.0, n))).tocsr()
        B = (B - 0.5j * sp.eye(n)).tocsr()
        which = EigenSelection("abs_largest", None, 8)
        Bin = B
    else:
        which = EigenSelection("re_above", 0.5 * (values[9] + values[10]), 20)
        Bin = Factorization(spla.splu(B.tocsc()), B)
    pairs = dense_generalized_eig(A, Bin, which=which)
    dense = dense_generalized_eig(A.toarray(), B.toarray(), which=which)
    assert len(pairs) == len(dense) > 0
    assert (pairs.rejected, pairs.fallback) == (dense.rejected, dense.fallback)
    for p, q in zip(pairs, dense):
        assert p.value == q.value and np.array_equal(p.vector, q.vector)


# ---------------------------------------------------------------- orthonormalize


def test_orthonormalize_duplicate_dropped():
    e1 = np.array([1.0, 0.0, 0.0])
    Q = orthonormalize([e1, e1])
    assert Q.shape == (3, 1)
    assert np.allclose(Q[:, 0], e1)


def test_orthonormalize_two_unit_vectors():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    Q = orthonormalize([e1, e2])
    assert Q.shape == (2, 2)
    assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-14)


def test_orthonormalize_rank_matches_svd():
    rng = np.random.default_rng(8)
    V = rng.standard_normal((3, 5))
    Q = orthonormalize([V[:, j] for j in range(5)])
    svd_rank = np.linalg.matrix_rank(V)
    assert Q.shape[1] == svd_rank == 3


def test_orthonormalize_all_zero():
    Q = orthonormalize([np.zeros(4), np.zeros(4)])
    assert Q.shape == (4, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_orthonormalize_properties(n, m, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    Q = orthonormalize(V)
    assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-10)
    # span is preserved: every input column is reproduced by the projector
    proj = Q @ (Q.conj().T @ V)
    assert np.allclose(proj, V, atol=1e-8 * max(1.0, np.abs(V).max()))


def test_orthonormalize_peak_memory_below_one_and_a_half_inputs():
    """Gram-Schmidt projects without a conjugated copy of the basis."""
    rng = np.random.default_rng(12)
    V = rng.standard_normal((2000, 300)) + 1j * rng.standard_normal((2000, 300))
    tracemalloc.start()
    try:
        Q = orthonormalize(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.shape == V.shape
    assert peak < 1.5 * V.nbytes
