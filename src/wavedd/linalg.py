"""Minimal complex linear algebra kernel.

A sparse symmetry test, a reusable sparse LU handle with its two factor
rules (partial pivoting, and the SPD test of symmetric mode), a dense
generalized eigensolver with the mode selection of the spectral coarse
spaces, and Krylov methods (GMRES, CG) with pluggable preconditioners.

Conventions:
  * sparse matrices are scipy's own, CSR as assembled,
  * dense matrices are plain numpy arrays in C (row-major) order; the GMRES
    Krylov basis is stored one vector per row, so each vector is contiguous,
  * Hermitian products X* v are formed as (v.conj() @ X).conj() (or
    (X @ v.conj()).conj() for a row-stored basis): only the vector is
    conjugated, never a copy of the matrix,
  * ``is_symmetric`` tests A = A^T (plain transpose, no conjugation),
  * operators passed to the Krylov driver may be matrices or callables,
  * GMRES is right-preconditioned, so the reported residual history is the
    history of true (unpreconditioned) relative residuals.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericError, SingularityError, StructuralError

__all__ = [
    "ComplexSparseMatrix",
    "Factorization",
    "KrylovConfig",
    "KrylovReport",
    "EigenPair",
    "EigenPairs",
    "EigenSelection",
    "is_symmetric",
    "lu_factorize",
    "spd_factorize",
    "symmetric_lu",
    "krylov_solve",
    "dense_generalized_eig",
    "orthonormalize",
]


class ComplexSparseMatrix(sp.csr_matrix):
    """A scipy CSR matrix plus two aliases, ``matvec`` (``A @ x``) and
    ``to_scipy`` (the matrix itself), that only perfbench reads; the library
    and its tests use neither.  Only ``AssembledSystem.A`` and
    ``MaxwellSystem.A`` are built as this class.  It goes when perfbench
    calls the plain CSR API (ROADMAP item 1)."""

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self @ x

    def to_scipy(self) -> sp.csr_matrix:
        return self


def is_symmetric(A: sp.spmatrix) -> bool:
    """Check A = A^T (no conjugation) entrywise on the stored pattern, to
    1e-13 * max|A|."""
    if A.shape[0] != A.shape[1]:
        return False
    scale = np.abs(A.data).max() if A.nnz else 0.0
    if scale == 0.0:
        return True
    diff = A - A.T
    if diff.nnz == 0:
        return True
    return np.abs(diff.data).max() <= 1e-13 * scale


class Factorization:
    """Reusable sparse LU handle; safe for concurrent solves.  It holds one
    copy of L and U, SuperLU's own: the factor rules below read the pivots
    through ``_pivots``, which drops the CSC copies of L and U that the read
    leaves cached on the SuperLU object.  ``dtype`` is
    the dtype of the matrix factored, taken from ``matrix`` when not given:
    ``solve`` splits a complex right side of a real factor into two real
    solves, and a caller that sums solves sizes its output by it.
    ``matrix``, when given, is the sparse matrix factored: a pencil's right
    side passed as its factor keeps it for ARPACK's products and for the
    dense path of ``dense_generalized_eig``, which densifies it."""

    def __init__(self, superlu, matrix: sp.spmatrix | None = None, dtype=None):
        self._lu = superlu
        self.matrix = matrix
        self.dtype = np.dtype(matrix.dtype if dtype is None else dtype)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self._lu.solve(b.real) + 1j * self._lu.solve(b.imag)
        return self._lu.solve(b)


def lu_factorize(A, ordering: str = "COLAMD") -> Factorization:
    """Sparse LU with partial pivoting for square, structurally nonsingular A.

    ``ordering`` is SuperLU's column ordering (``permc_spec``): COLAMD, or
    "MMD_AT_PLUS_A", which the Helmholtz Robin matrices and DtN interior
    blocks pass: their pattern is symmetric, and minimum degree on A^T + A
    gives them less fill.  The Maxwell local factors and the complex coarse
    matrices keep COLAMD; ``spd_factorize`` serves the real SPD ones.
    Raises StructuralError for an unknown ordering, and SingularityError when
    SuperLU hits an exact zero pivot or when the factorization leaves a pivot
    below 1e-14 * max|A|.  The pivots are read exactly, by ``_pivots``, and
    the factor keeps no second copy of L and U.
    """
    if ordering not in ("COLAMD", "MMD_AT_PLUS_A"):
        raise StructuralError(f"unknown LU column ordering {ordering!r}")
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise StructuralError("lu_factorize requires a square matrix")
    scale = np.abs(A.data).max() if A.nnz else 0.0
    if scale == 0.0:
        raise SingularityError("zero matrix is singular")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            lu = spla.splu(A, permc_spec=ordering)
    except RuntimeError as exc:
        raise SingularityError(f"sparse LU failed: {exc}") from exc
    piv = np.abs(_pivots(lu))
    if piv.min() <= 1e-14 * scale:
        raise SingularityError(f"pivot {piv.min():.3e} below threshold {1e-14 * scale:.3e}")
    return Factorization(lu, dtype=A.dtype)


def _pivots(lu) -> np.ndarray:
    """The pivots of the SuperLU factor ``lu``, the diagonal of its U.  Only
    ``lu.U`` gives them, and its first read makes CSC copies of both L and U
    that scipy (1.17.1) caches on ``lu`` for as long as the factor lives,
    as large as the factor itself.  The same two cached matrices come back
    on every read, so their arrays are replaced here: U keeps only its
    diagonal, so that a later ``lu.U.diagonal()`` still reads the pivots, and
    L nothing.  The factor's solves read SuperLU's own storage and
    do not change; a scipy that caches nothing makes this a temporary."""
    L, U = lu.L, lu.U
    piv = U.diagonal()
    n = piv.size
    L.data, L.indices = np.empty(0, L.data.dtype), np.empty(0, L.indices.dtype)
    L.indptr = np.zeros_like(L.indptr)
    U.data, U.indices = piv, np.arange(n, dtype=U.indices.dtype)
    U.indptr = np.arange(n + 1, dtype=U.indptr.dtype)
    return piv


def symmetric_lu(B: sp.spmatrix):
    """The SPD factor rule: SuperLU's factor of the sparse real symmetric B
    in symmetric mode (diagonal pivots, minimum degree on A^T + A), as a
    ``Factorization`` that carries B, and whether B is SPD.  It is when
    every pivot is diagonal (perm_r == perm_c), for then the pivots are the
    D of B = L D L^T, and above 1e-14 * max|B|, the pivot rule of
    ``lu_factorize``: a singular PSD B whose last pivot rounds to a tiny
    positive value is not SPD.  A B on which ``splu`` fails is not SPD; its
    factor is None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            lu = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
    except RuntimeError:
        return None, False
    floor = 1e-14 * np.abs(B.data).max(initial=0.0)
    spd = np.array_equal(lu.perm_r, lu.perm_c) and np.all(_pivots(lu) > floor)
    return Factorization(lu, B), bool(spd)


def spd_factorize(A: sp.spmatrix) -> Factorization:
    """Factor of the sparse real symmetric A: the ``symmetric_lu`` factor
    when A passes its SPD test, else ``lu_factorize`` (COLAMD, partial
    pivoting), with its SingularityError rule.  An SPD A has less fill in
    symmetric mode, and its pivots pass that rule."""
    fact, spd = symmetric_lu(A)
    return fact if spd else lu_factorize(A)


@dataclass(frozen=True)
class KrylovConfig:
    """Krylov driver settings; tol is on the true relative residual."""

    tol: float = 1e-6
    max_iter: int = 500
    restart: int | None = None
    variant: str = "gmres"

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise StructuralError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise StructuralError("max_iter must be >= 1")
        if self.restart is not None and self.restart < 1:
            raise StructuralError("restart must be >= 1 when present")
        if self.variant not in ("gmres", "cg"):
            raise StructuralError(f"unknown variant {self.variant!r}")


@dataclass
class KrylovReport:
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    final_residual: float = 0.0


def _as_operator(op) -> Callable[[np.ndarray], np.ndarray] | None:
    """A callable as it is, None as no operator, and any matrix, sparse or
    dense, by its product ``op @ x``."""
    if op is None or callable(op):
        return op
    return lambda x: op @ x


def krylov_solve(A, M_inv, b, cfg: KrylovConfig = KrylovConfig()):
    """Solve A x = b with an optional preconditioner M_inv.

    ``A`` and ``M_inv`` may be matrices or matvec callables.  GMRES applies
    the preconditioner on the right (solve A M^-1 y = b, x = M^-1 y) so the
    convergence test is on the true residual; the CG variant assumes an SPD
    pair and is meant for the real symmetric case.  CG raises NumericError
    on a breakdown, p* A p = 0, naming the iteration.
    """
    apply_A = _as_operator(A)
    apply_M = _as_operator(M_inv)
    b = np.asarray(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), KrylovReport(0, True, [], 0.0)
    if cfg.variant == "cg":
        return _pcg(apply_A, apply_M, b, cfg)
    return _gmres(apply_A, apply_M, b, cfg)


def _check_finite(w, what):
    if not np.all(np.isfinite(w)):
        raise NumericError(f"{what} produced non-finite values")


def _gmres(apply_A, apply_M, b, cfg: KrylovConfig):
    n = b.shape[0]
    dtype = np.promote_types(b.dtype, np.complex128)
    bnorm = np.linalg.norm(b)
    x = np.zeros(n, dtype=dtype)
    residuals: list[float] = []
    iters = 0

    while True:
        r = b - apply_A(x) if iters else b.astype(dtype)
        beta = np.linalg.norm(r)
        if beta / bnorm <= cfg.tol or iters >= cfg.max_iter:
            break
        m = min(cfg.restart or cfg.max_iter, cfg.max_iter - iters)
        # the arrays hold cap rows and double when they fill, so a large
        # max_iter reserves nothing the solve does not reach; up to 512 rows
        # (the default max_iter is 500) they are reserved whole, as large as
        # the cycle may need: a smaller basis can fall under glibc's dynamic
        # mmap threshold into the heap, which keeps its pages after the solve
        cap = min(m + 1, 512)
        V = np.empty((cap, n), dtype=dtype)
        V[0] = r / beta
        H = np.zeros((cap, cap - 1), dtype=dtype)
        cs, sn = np.zeros(cap - 1, dtype=dtype), np.zeros(cap - 1, dtype=dtype)
        g = np.zeros(cap, dtype=dtype)
        g[0] = beta
        k_used = 0
        inner_done = False
        for k in range(m):
            if k + 1 == cap:
                grow = min(cap, m + 1 - cap)
                V = np.pad(V, ((0, grow), (0, 0)))
                H = np.pad(H, (0, grow))
                cs, sn, g = (np.pad(a, (0, grow)) for a in (cs, sn, g))
                cap += grow
            z = apply_M(V[k]) if apply_M is not None else V[k]
            _check_finite(z, "preconditioner")
            w = apply_A(z)
            _check_finite(w, "operator")
            w = w.astype(dtype, copy=True)
            # classical Gram-Schmidt with one reorthogonalization pass; the
            # products conjugate the vector, never the basis
            Vk = V[: k + 1]
            h = (Vk @ w.conj()).conj()
            w -= h @ Vk
            h2 = (Vk @ w.conj()).conj()
            w -= h2 @ Vk
            h += h2
            hk1 = np.linalg.norm(w)
            H[: k + 1, k] = h
            H[k + 1, k] = hk1
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
                H[i, k] = t
            denom = np.hypot(abs(H[k, k]), abs(H[k + 1, k]))
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            elif H[k, k] == 0:
                cs[k], sn[k] = 0.0, 1.0
            else:
                phase = H[k, k] / abs(H[k, k])
                cs[k] = abs(H[k, k]) / denom
                sn[k] = phase * np.conj(H[k + 1, k]) / denom
            t = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            H[k, k] = t
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            iters += 1
            k_used = k + 1
            rel = abs(g[k + 1]) / bnorm
            residuals.append(float(rel))
            lucky = hk1 <= 1e-14 * max(beta, 1.0)
            if rel <= cfg.tol or lucky or iters >= cfg.max_iter:
                inner_done = True
            else:
                V[k + 1] = w / hk1
            if inner_done:
                break
        y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used], lower=False)
        u = y @ V[:k_used]
        x = x + (apply_M(u) if apply_M is not None else u)

    final = float(np.linalg.norm(b - apply_A(x)) / bnorm)
    return x, KrylovReport(iters, final <= cfg.tol, residuals, final)


def _pcg(apply_A, apply_M, b, cfg: KrylovConfig):
    dtype = b.dtype if np.iscomplexobj(b) else np.float64
    bnorm = np.linalg.norm(b)
    x = np.zeros(b.shape[0], dtype=dtype)
    r = b.astype(dtype, copy=True)
    z = apply_M(r) if apply_M is not None else r
    _check_finite(z, "preconditioner")
    p = z.copy()
    rz = np.vdot(r, z)
    residuals: list[float] = []
    iters = 0
    while iters < cfg.max_iter:
        Ap = apply_A(p)
        _check_finite(Ap, "operator")
        pAp = np.vdot(p, Ap)
        if pAp == 0.0:
            raise NumericError(f"CG breakdown at iteration {iters + 1}: p* A p = 0")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iters += 1
        rel = float(np.linalg.norm(r) / bnorm)
        residuals.append(rel)
        if rel <= cfg.tol:
            # recurrence residuals drift on ill-conditioned systems: confirm
            # against the true residual and restart the recursion if needed
            r_true = b - apply_A(x)
            if np.linalg.norm(r_true) / bnorm <= cfg.tol:
                break
            r = r_true.astype(dtype, copy=False)
            z = apply_M(r) if apply_M is not None else r
            _check_finite(z, "preconditioner")
            p = z.copy()
            rz = np.vdot(r, z)
            continue
        z = apply_M(r) if apply_M is not None else r
        _check_finite(z, "preconditioner")
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    final = float(np.linalg.norm(b - apply_A(x)) / bnorm)
    return x, KrylovReport(iters, final <= cfg.tol, residuals, final)


@dataclass(frozen=True)
class EigenPair:
    """One generalized eigenpair; the vector is normalized to unit 2-norm."""

    value: complex
    vector: np.ndarray


def _is_hermitian(M: np.ndarray) -> bool:
    atol = 1e-12 * max(1.0, np.abs(M).max())
    # M - M* has the diagonal 2i Im(M_ii): a complex M whose diagonal fails
    # the test below fails the allclose rule too, without its n x n temporaries
    if np.iscomplexobj(M) and 2.0 * np.abs(M.diagonal().imag).max() > atol:
        return False
    return np.allclose(M, M.conj().T, rtol=0.0, atol=atol)


class EigenPairs(list):
    """The eigenpairs that ``dense_generalized_eig`` returns: a list of
    ``EigenPair``, whose ``rejected`` counts the pairs that the selection
    reached and the residual contract dropped, and whose ``fallback`` says
    that ARPACK failed on the pencil and it was solved densely instead."""

    rejected = 0
    fallback = False


@dataclass(frozen=True)
class EigenSelection:
    """The eigenpairs of a local pencil that a spectral coarse space keeps:
    at most ``m_max`` of them, in the order of ``rule``.

      "re_below"    Re(lambda) < threshold, ascending real part,
      "re_above"    Re(lambda) > threshold, descending real part (a
                    threshold of -inf keeps the m_max largest),
      "abs_largest" descending magnitude (for indefinite pencils, whose
                    troublesome quasi-resonant modes carry large |lambda| of
                    arbitrary phase).

    Ties in the real part are broken by descending magnitude under
    "re_below" and, as the reverse of that order, by ascending magnitude
    under "re_above"; ties in magnitude by descending real part under
    "abs_largest", which ignores ``threshold``.  "re_below" at +inf with an
    m_max of the pencil size keeps every finite pair.
    """

    rule: str = "re_above"
    threshold: float | None = 0.5
    m_max: int = 20

    def __post_init__(self):
        if self.rule not in ("re_below", "re_above", "abs_largest"):
            raise StructuralError(f"unknown selection rule {self.rule!r}")
        if self.m_max < 0:
            raise StructuralError("m_max must be nonnegative")
        if self.threshold is not None and np.isnan(self.threshold):
            raise StructuralError("selection threshold must not be NaN")

    def order(self, values) -> list:
        """The indices of ``values`` in rule order, less those the threshold excludes."""
        if self.rule == "abs_largest":
            return sorted(range(len(values)), key=lambda i: (-abs(values[i]), -values[i].real))
        # ascending real part, ties by descending magnitude; the sort is stable
        order = sorted(range(len(values)), key=lambda i: (values[i].real, -abs(values[i])))
        if self.rule == "re_below":
            return [i for i in order if values[i].real < self.threshold]
        return [i for i in reversed(order) if values[i].real > self.threshold]


def _densified(M, dtype):
    """M as a dense array, and whether that is a new copy, which the caller
    may overwrite: a sparse matrix, or a ``LinearOperator`` by its product
    with the identity, becomes a new Fortran-ordered array of ``dtype``; a
    dense array is used as it is."""
    if isinstance(M, spla.LinearOperator):
        return np.asarray(M @ np.eye(M.shape[0]), dtype=dtype, order="F"), True
    if sp.issparse(M):
        return M.astype(dtype, copy=False).toarray(order="F"), True
    return M, False


def _dense_eig(A, B):
    """Every eigenpair (w, v) of the square pencil (A, B), densified by
    ``_densified``, and the Frobenius norms of A and B.

    Hermitian A with Hermitian positive definite B goes through ``eigh``.
    Otherwise the LU of B overwrites the dense copy of B, B^-1 A that of A,
    each freed once used, and numpy's ``eig`` solves B^-1 A: it releases the
    GIL, so two threads can run it at once; scipy's eig and eigh do not.
    When B is numerically singular, QZ (scipy's ``eig`` of the pencil,
    densified again) solves it, and may give infinite values.  Raises
    LinAlgError when that fails too."""
    dtype = np.result_type(A.dtype, B.dtype)  # the dtype of B^-1 A
    dA, own_A = _densified(A, dtype)
    dB, own_B = _densified(B, B.dtype)
    norms = np.linalg.norm(dA, "fro"), np.linalg.norm(dB, "fro")
    if _is_hermitian(dB) and _is_hermitian(dA):
        try:
            w, v = sla.eigh(dA, dB)
            return w.astype(np.complex128), v, *norms
        except (np.linalg.LinAlgError, sla.LinAlgError):
            pass  # B not definite; fall through to the general path
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(dB, overwrite_a=own_B)
        del dB
        dg = np.abs(np.diagonal(lu))
        if dg.min() <= 1e-13 * max(dg.max(), 1e-300):
            raise np.linalg.LinAlgError("B numerically singular")
        T = sla.lu_solve((lu, piv), dA, overwrite_b=own_A)
        del lu, piv, dA
        return *np.linalg.eig(T), *norms
    except (np.linalg.LinAlgError, sla.LinAlgError):
        return *sla.eig(_densified(A, dtype)[0], _densified(B, B.dtype)[0]), *norms


def _arpack_eig(A, B, which: EigenSelection) -> EigenPairs | None:
    """The pairs of the real symmetric pencil (A, B) that the "re_above"
    ``which`` selects, by ARPACK (``eigsh``, largest algebraic values); A is
    a LinearOperator, B the ``Factorization`` of a sparse SPD matrix that
    carries it, and the inverse of B is that factor.

    k starts at min(4, m_max) and doubles, up to m_max, while all k values
    pass the threshold: only then can a wanted value lie beyond the k
    computed.  Returns None when the pencil is too small for ARPACK at
    k = m_max (ncv = max(2 m_max + 1, 20) > n).  Raises NumericError when a
    pair fails the residual contract ||A v - lambda B v|| <= 1e-8 (||A v|| +
    |lambda| ||B v||), and ARPACK's own errors when it does not converge.
    """
    n = A.shape[0]
    m_max = which.m_max
    if m_max == 0:
        return EigenPairs()
    if max(2 * m_max + 1, 20) > n:
        return None
    Binv = spla.LinearOperator((n, n), matvec=B.solve, dtype=np.float64)
    B = B.matrix
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed: runs repeat bit for bit
    k = min(4, m_max)
    while True:
        w, V = spla.eigsh(A, k, M=B, Minv=Binv, which="LA", ncv=max(2 * k + 1, 20),
                          tol=0, v0=v0)
        order = which.order(w)
        if len(order) < k or k == m_max:
            break
        k = min(2 * k, m_max)
    pairs = EigenPairs()
    for i in order:
        lam, x = w[i], V[:, i] / np.linalg.norm(V[:, i])
        Ax, Bx = A @ x, B @ x
        res = np.linalg.norm(Ax - lam * Bx)
        if res > 1e-8 * (np.linalg.norm(Ax) + abs(lam) * np.linalg.norm(Bx)):
            raise NumericError(f"ARPACK pair {lam:.6e} fails the residual contract")
        pairs.append(EigenPair(complex(lam), x))
    return pairs


def dense_generalized_eig(A, B, which: EigenSelection) -> EigenPairs:
    """Solve the generalized eigenproblem A v = lambda B v and select its
    pairs.

    Hermitian A with Hermitian positive definite B goes through the fast
    symmetric path; otherwise the pencil is reduced to a standard problem by
    factorizing B (QZ is the fallback when B is singular, dropping the
    infinite eigenvalues).  Returned vectors have unit 2-norm.

    The pairs are taken in the order of the ``EigenSelection`` ``which``, at
    most its m_max of them.  Each must pass the residual contract
    ||A v - lambda B v|| <= 1e-8 (||A||_F + |lambda| ||B||_F); one that
    fails is dropped and the next takes its place.  The contract is checked
    a batch at a time, with one product by A and one by B: first for the
    m_max leading pairs, then for as many of the next ones as pairs were
    dropped, so only the pairs up to the last one kept are checked; the
    returned ``EigenPairs`` counts the dropped ones in ``rejected``.

    A real symmetric pencil given as a ``scipy.sparse.linalg.LinearOperator``
    A and the ``Factorization`` of a sparse SPD B that carries it, under the
    "re_above" rule, is solved by ARPACK instead (``_arpack_eig``), which
    reuses that factor.  The residual contract is taken per pair, ||A v||
    and ||B v|| in place of the Frobenius norms: a bound no weaker for a
    unit v.  Any other pencil takes the dense path, as does one too small
    for ARPACK at m_max, and one on which ARPACK fails (no convergence, or a
    pair past the contract); the returned ``EigenPairs`` then has
    ``fallback`` set.

    A and B may be dense arrays, sparse matrices or a ``Factorization``,
    which stands for its matrix.  The dense path, ``_dense_eig``, solves
    dense copies of a sparse or ``LinearOperator`` pencil, which it
    overwrites; the residual contract takes its products from the pencil as
    passed.
    """
    fallback = False
    if (isinstance(A, spla.LinearOperator) and isinstance(B, Factorization)
            and which.rule == "re_above"):
        try:
            pairs = _arpack_eig(A, B, which)
            if pairs is not None:
                return pairs
        except (spla.ArpackError, NumericError):
            fallback = True  # ArpackNoConvergence is an ArpackError
    A, B = (M.matrix if isinstance(M, Factorization)
            else M if sp.issparse(M) or isinstance(M, spla.LinearOperator)
            else np.asarray(M) for M in (A, B))
    if len(A.shape) != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise StructuralError("A, B must be square and of equal size")
    if A.shape[0] == 0:
        return EigenPairs()
    try:
        w, v, nA, nB = _dense_eig(A, B)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise NumericError(f"generalized eigensolve failed: {exc}") from exc
    # singular B pollutes every solver path: drop infinite values
    finite = np.flatnonzero(np.isfinite(w))
    candidates = finite[which.order(w[finite])]
    limit = which.m_max
    pairs = EigenPairs()
    pairs.fallback = fallback
    start = 0
    while len(pairs) < limit and start < len(candidates):
        batch = candidates[start:start + limit - len(pairs)]
        start += len(batch)
        lam = w[batch]
        X = v[:, batch]
        nrm = np.linalg.norm(X, axis=0)
        X = X / np.where(nrm > 0, nrm, 1.0)
        res = np.linalg.norm(A @ X - (B @ X) * lam, axis=0)
        passed = (nrm > 0) & (res <= np.maximum(1e-8 * (nA + np.abs(lam) * nB), 1e-300))
        for i, ok in zip(batch, passed):
            if not ok:
                pairs.rejected += 1
                continue
            # two normalizations, by the summed column norm and then by the
            # dot-product 2-norm: the coarse bases are pinned to this rounding
            x = v[:, i]
            x = x / np.linalg.norm(x, axis=0)
            pairs.append(EigenPair(complex(w[i]), x / np.linalg.norm(x)))
    return pairs


def orthonormalize(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the columns of the 2-D
    array V.

    Rank revealing: a column whose projection residual has relative norm
    below 1e-10 is dropped.  Modified Gram-Schmidt with reorthogonalization,
    order preserving; meant for the small local sets of the coarse-space
    builders.  All-zero input yields an (n, 0) basis.
    """
    n, m = V.shape
    dtype = np.promote_types(V.dtype, np.float64)
    basis = np.empty((n, m), dtype=dtype)
    r = 0
    for j in range(m):
        v = V[:, j].astype(dtype, copy=True)
        nrm0 = np.linalg.norm(v)
        if nrm0 == 0.0:
            continue
        for _ in range(2):
            if r:
                B = basis[:, :r]
                v -= B @ (v.conj() @ B).conj()
        nrm = np.linalg.norm(v)
        if nrm < 1e-10 * nrm0:
            continue
        basis[:, r] = v / nrm
        r += 1
    return np.ascontiguousarray(basis[:, :r])
