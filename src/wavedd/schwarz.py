"""Schwarz preconditioners for Helmholtz and Maxwell, and the Helmholtz
coarse spaces.

One one-level method, ``OneLevel``, serves both physics:

    M^-1 = sum_j R_j^T W_j F_j^-1 R_j,

ORAS for Helmholtz, with F_j the local Robin (impedance) matrices and
W_j = D_j the partition of unity; additive Schwarz for Maxwell, with F_j
the local Dirichlet matrices and W_j = I.  A two-level method adds the
coarse correction H = Z E^-1 Z* with E = Z* A Z, combined either additively
(M2^-1 = M^-1 + H) or in hybrid form

    M2^-1 = (I - HA) M^-1 (I - AH) + H.

Coarse space builders:
  grid         nodal interpolation from a nested coarse mesh,
  dtn          interface Dirichlet-to-Neumann modes (Schur complement vs
               interface mass), lifted by the discrete Helmholtz extension,
  hgeneo       eigenproblem D_j L_j D_j u = lambda A~_j u (Laplacian left
               side, Helmholtz Neumann right side),
  deltageneo   plain GenEO on the nearby positive operator -lap + k^2.

Every coarse space stores one basis, the sparse CSC matrix Z of locally
supported columns, and a sparse E = Z* A Z; the correction depends only on
span(Z), so no basis is orthonormalized globally.  The spectral spaces of
both physics share one loop, ``_local_modes``: per subdomain a local pencil,
the eigenpairs that ``dense_generalized_eig`` selects by an
``EigenSelection`` (re-exported here from ``wavedd.linalg``), and their lift
to sparse global columns.  A builder supplies only its pencil and its lift;
``_independent_columns`` then keeps the independent columns.  The DtN,
H-GenEO and Delta-GenEO spaces here and Maxwell's GenEO complement are four
pencils on that loop.  DtN's Schur-complement pencil is dense.  The H-GenEO
and Delta-GenEO pencils are sparse matrices, the Delta-GenEO right side
passed as the ``Factorization`` of its SPD test; ``dense_generalized_eig``
densifies them.  The GenEO complement is a ``LinearOperator`` against a
sparse matrix, which ``dense_generalized_eig`` solves by ARPACK; a
subdomain on which ARPACK fails is re-solved densely and flagged.  One
SPD-or-shift rule, ``_sparse_spd_or_shifted``, regularizes the real
symmetric right sides of Delta-GenEO and the GenEO complement.

The loop builds the pencils on the calling thread and solves the complex
ones (DtN, H-GenEO) on a pool of two threads, at most two at a time, while
it builds the next; it hands the pairs on strictly in subdomain order, so
the bases do not depend on which solve ends first.  numpy's ``eig``, which
solves them after an LU reduction, releases the GIL.  The real symmetric
pencils (Delta-GenEO by scipy's ``eigh``, the GenEO complement by ARPACK)
are solved on the calling thread, one after another: ``eigh`` holds the
GIL, and ARPACK's reverse communication runs Python for every operator
apply.  No factor is shared between the threads: each dense solve of
``dense_generalized_eig`` factors its own right side, since two threads
calling ``scipy.linalg.lu_solve`` on one ``lu_factor`` result corrupt the
heap (scipy 1.17.1), and the sparse factors of the SPD tests are made on
the calling thread.

``TwoLevel`` serves Helmholtz and Maxwell alike: with a real A and a real
sparse Z the coarse correction of a real vector is real, so the hybrid form
stays a symmetric preconditioner for CG.
"""
from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import Decomposition, _ancestor_chain_to
from .errors import SingularityError, StructuralError
from .helmholtz import (
    AssembledSystem,
    HelmholtzProblem,
    _shape_values,
    assemble_helmholtz_subset,
)
from .linalg import (
    EigenPairs,
    EigenSelection,
    Factorization,
    dense_generalized_eig,
    is_symmetric,
    lu_factorize,
    orthonormalize,  # noqa: F401 - perfbench/tracing.py patches this name here
)
from .mesh import Mesh

__all__ = [
    "EigenSelection",
    "OneLevel",
    "OneLevelOras",
    "CoarseSpace",
    "TwoLevel",
    "build_grid_cs",
    "build_dtn_cs",
    "build_hgeneo_cs",
    "build_deltageneo_cs",
]


class OneLevel:
    """One-level Schwarz M^-1 v = sum_j R_j^T W_j F_j^-1 R_j v, on the local
    factors that the set-up attached to each subdomain: a Robin factor
    (``assemble_local_matrices``) is weighted by the partition of unity,
    W_j = D_j (ORAS); otherwise a Dirichlet factor
    (``maxwell.build_edge_decomposition``) has W_j = I (additive Schwarz).
    The output has the dtype of v and the factors combined, so a real
    Maxwell preconditioner serves GMRES's complex vectors as well as CG's.
    Raises StructuralError naming the first subdomain with neither factor."""

    def __init__(self, dec: Decomposition):
        self.dec = dec
        self._local = []
        for sd in dec.subdomains:
            if sd.robin_fact is not None:
                self._local.append((sd.dofs, sd.robin_fact, sd.weights))
            elif sd.a_fact is not None:
                self._local.append((sd.dofs, sd.a_fact, None))
            else:
                raise StructuralError(f"subdomain {sd.index} has no local factorization")
        self._dtype = np.result_type(*(f.dtype for _, f, _ in self._local))

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dec.n_dofs, dtype=np.result_type(v, self._dtype))
        for dofs, fact, weights in self._local:
            x = fact.solve(v[dofs])
            out[dofs] += x if weights is None else weights * x
        return out

    __call__ = apply


# perfbench/workloads.py and tests/test_acceptance.py import the one-level
# ORAS under this name
OneLevelOras = OneLevel


class CoarseSpace:
    """Coarse space on the span of a sparse basis Z, with the factorized
    coarse matrix E = Z* A Z; the coarse correction is H v = Z E^-1 Z* v.

    ``Z`` is the one stored basis, CSC, for every space: grid, spectral and
    Maxwell.  ``E`` is sparse; for a real symmetric A (``is_symmetric``), as
    every Maxwell A is, E is kept exactly symmetric, so that H is symmetric
    to rounding, as CG needs.  n0 = 0 is a legal empty coarse space.  A
    spectral space records, per subdomain, its
    mode count in ``per_subdomain`` and in ``rejected`` the number of
    eigenpairs that the residual contract of ``dense_generalized_eig``
    dropped.  ``flags`` lists the subdomains whose modes did not come from
    the plain solve of their pencil: the pencil was shift-regularized (a
    singular Neumann matrix or DtN interior block), or ARPACK failed on it
    and it was re-solved densely (``EigenPairs.fallback``).
    Raises SingularityError when a pivot of E falls below 1e-14 * max|E|,
    the rule of ``lu_factorize``: Z has (numerically) dependent columns or
    the indefinite E is singular.
    """

    def __init__(self, Z, A, provenance: str, flags=None, per_subdomain=None,
                 rejected=None):
        self.provenance = provenance
        self.flags = list(flags or [])
        self.per_subdomain = per_subdomain or []
        self.rejected = rejected or []
        self.Z = sp.csc_matrix(Z)
        if self.n0 == 0:
            self._solver = None
            return
        # E = Z* (A Z), 64 columns at a time, as conj(Z^T conj(A Z_J)): no
        # conjugated copy of Z, and no copy of Z or A Z beyond one block
        blocks = []
        for j in range(0, self.n0, 64):
            W = A @ self.Z[:, j:j + 64]
            np.conjugate(W.data, out=W.data)
            W = self.Z.T @ W
            np.conjugate(W.data, out=W.data)
            blocks.append(W)
        self.E = sp.hstack(blocks, format="csc")
        if not np.iscomplexobj(A) and is_symmetric(A):
            # a symmetric A makes E symmetric; rounding in the product breaks
            # that, and cond(E) amplifies it into a non-symmetric H
            self.E = (0.5 * (self.E + self.E.T)).tocsc()
        self._solver = lu_factorize(self.E).solve

    @property
    def n0(self) -> int:
        return self.Z.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Coarse correction H v = Z E^-1 Z* v."""
        if self.n0 == 0:
            return np.zeros(np.shape(v), dtype=np.result_type(v, self.Z.dtype))
        r = (np.conj(v) @ self.Z).conj()
        return self.Z @ self._solver(r)

    __call__ = apply


def _independent_columns(Z, kept: int = 0) -> sp.csc_matrix:
    """The columns of Z scaled to unit norm, in input order, less those that
    depend on the others: one pivoted Cholesky (LAPACK xPSTRF) of the Gram
    matrix G of the unit-norm columns stops at a pivot below 1e-12 =
    1e-12 * max(diag(G)).  G squares the conditioning, so that drops a column
    whose residual against the kept ones is below 1e-6 of its norm, whatever
    the input scale.

    The first ``kept`` columns F of a real Z are known to be independent and
    are all kept, whole; only the others, Y, are tested, against span(F)
    and each other, so a dependent column of Y is dropped, never one of F.
    F is eliminated first (Higham, 1990): G_FF, the Gram block of F, is
    factored by ``_symmetric_lu`` (SingularityError if it is not SPD), and
    xPSTRF runs with the same pivot floor on the Schur complement
    S = G_YY - G_FY^T G_FF^-1 G_FY, formed through the full solve of that
    factor.  Not as X^T D^-1 X with X = L^-1 P G_FY: the factor's order
    reduces fill and does not pivot, so a near-dependent pair early in F
    makes L^-1 large, and on such an F that form left a pivot of 1.6e-12,
    above the floor, for a column of Y in span(F), where the full solve
    leaves 0.  No dense array larger than kept x (columns of Y) is formed."""
    Z = sp.csc_matrix(Z)
    if not Z.shape[1]:
        return Z
    Z = Z @ sp.diags(1.0 / spla.norm(Z, axis=0))
    if kept:
        F, Y = Z[:, :kept], Z[:, kept:]
        lu, spd = _symmetric_lu(F.T @ F)
        if not spd:
            raise SingularityError("the kept columns are not independent")
        B = (F.T @ Y).toarray()
        G = np.asfortranarray((Y.T @ Y).toarray() - B.T @ lu.solve(B))
    else:
        G = (Z.conj().T @ Z).toarray(order="F")
    pstrf, = sla.get_lapack_funcs(("pstrf",), (G,))
    _, piv, rank, _ = pstrf(G, tol=1e-12, overwrite_a=True)
    return Z[:, np.r_[:kept, kept + np.sort(piv[:rank] - 1)]]


class TwoLevel:
    """Two-level combination of a one-level method and a coarse correction,
    for Helmholtz (ORAS) and Maxwell (additive Schwarz) alike."""

    def __init__(self, one_level, coarse: CoarseSpace, A, mode: str = "hybrid"):
        if mode not in ("additive", "hybrid"):
            raise StructuralError(f"unknown two-level mode {mode!r}")
        self.one_level = one_level
        self.coarse = coarse
        self.A = A
        self.mode = mode

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.coarse.n0 == 0:
            return self.one_level.apply(v)
        Hv = self.coarse.apply(v)
        if self.mode == "additive":
            return self.one_level.apply(v) + Hv
        r = v - self.A @ Hv
        w = self.one_level.apply(r)
        w = w - self.coarse.apply(self.A @ w)
        return w + Hv

    __call__ = apply


# ------------------------------------------------------------------ grid CS


def build_grid_cs(problem: HelmholtzProblem, coarse_mesh: Mesh,
                  system: AssembledSystem) -> CoarseSpace:
    """Nodal interpolation coarse space from a nested coarse mesh.

    Z interpolates every coarse basis function to the fine Lagrange DOFs
    (exact on nested meshes), so coarse == fine gives Z = I.
    """
    fine = problem.mesh
    if coarse_mesh.order != fine.order:
        raise StructuralError("coarse and fine meshes must share the element order")
    ancestor, f2c = _ancestor_chain_to(fine, coarse_mesh.n_triangles)
    if ancestor is not coarse_mesh:
        raise StructuralError("grid coarse space requires a nested (refined) mesh pair")

    # one incident fine element per fine DOF
    eldofs = fine.element_dofs()
    dof_elem = np.full(fine.n_dofs, -1, dtype=np.int64)
    for local in range(eldofs.shape[1]):
        dof_elem[eldofs[:, local]] = np.arange(fine.n_triangles)
    coords = fine.dof_coords()
    celem = f2c[dof_elem]

    tri = coarse_mesh.triangles[celem]
    p0 = coarse_mesh.vertices[tri[:, 0]]
    J = np.stack(
        [coarse_mesh.vertices[tri[:, 1]] - p0, coarse_mesh.vertices[tri[:, 2]] - p0],
        axis=-1,
    )
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    rhs = coords - p0
    xi = (J[:, 1, 1] * rhs[:, 0] - J[:, 0, 1] * rhs[:, 1]) / det
    eta = (-J[:, 1, 0] * rhs[:, 0] + J[:, 0, 0] * rhs[:, 1]) / det
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    vals = _shape_values(coarse_mesh.order, bary)  # (n_fine, nd)

    cdofs = coarse_mesh.element_dofs()[celem]  # (n_fine, nd)
    rows = np.repeat(np.arange(fine.n_dofs), cdofs.shape[1])
    Z = sp.coo_matrix(
        (vals.ravel(), (rows, cdofs.ravel())),
        shape=(fine.n_dofs, coarse_mesh.n_dofs),
    ).tocsr()

    if system.dirichlet_dofs.size:
        mask = np.ones(fine.n_dofs)
        mask[system.dirichlet_dofs] = 0.0
        Z = sp.diags(mask) @ Z
        colnorm = np.sqrt(np.asarray(Z.multiply(Z.conj()).sum(axis=0)).ravel().real)
        Z = Z[:, colnorm > 1e-12]
    return CoarseSpace(Z, system.A, provenance="grid")


# ------------------------------------------------------------------ spectral CS


def _solved_pencils(dec: Decomposition, pencil, selection: EigenSelection):
    """(sd, lift, flagged, pairs) of every subdomain, strictly in subdomain
    order, for ``_local_modes``; a skipped subdomain has no lift and no
    pairs.

    The pencils are built here, one after another.  A complex one is solved
    by a pool of two threads, at most two solves in flight: while both run,
    the next pencil waits for one of them to end.  Real pencils are solved
    here.  A result is yielded as soon as every earlier one has been, so an
    exception of a solve is raised at its subdomain's turn, and the solves
    still in flight end before it leaves.  A "re_below" threshold of None is
    the subdomain wavenumber k_j.
    """
    pending = deque()  # (sd, lift, flagged, future of the pairs), not yet yielded
    with ThreadPoolExecutor(max_workers=2) as pool:
        for sd in dec.subdomains:
            local = pencil(sd)
            if local is None:
                pending.append((sd, None, False, _resolved(EigenPairs())))
            else:
                lhs, rhs, lift, flagged = local
                which = selection
                if selection.rule == "re_below" and selection.threshold is None:
                    which = replace(selection, threshold=sd.k_max)
                pooled = np.iscomplexobj(lhs) or np.iscomplexobj(rhs)
                solve = partial(dense_generalized_eig, lhs, rhs, which=which)
                del local, lhs, rhs  # only ``solve`` holds the pencil
                if pooled:
                    running = [f for *_, f in pending if not f.done()]
                    if len(running) == 2:
                        wait(running, return_when=FIRST_COMPLETED)
                    future = pool.submit(solve)
                else:
                    future = _resolved(solve())
                pending.append((sd, lift, flagged, future))
                del solve, lift  # a lift may hold large factors: only ``pending`` keeps it
            while pending and pending[0][3].done():
                yield _delivered(pending)
        while pending:
            yield _delivered(pending)


def _resolved(pairs) -> Future:
    """A future that is done, with ``pairs`` solved on the calling thread."""
    future = Future()
    future.set_result(pairs)
    return future


def _delivered(pending: deque):
    """The oldest entry of ``pending``, removed, with its pairs; waits for
    them, and raises the exception of their solve."""
    sd, lift, flagged, future = pending.popleft()
    return sd, lift, flagged, future.result()


def _local_modes(dec: Decomposition, pencil, selection: EigenSelection):
    """The loop of every spectral coarse space, Helmholtz and Maxwell alike.

    Per subdomain, ``pencil(sd)`` returns the local pencil (lhs, rhs), the
    lift of a local eigenvector to its values on ``sd.dofs``, and whether the
    pencil had to be regularized; or None to skip the subdomain.  The
    eigenpairs that ``dense_generalized_eig`` selects by ``selection`` are
    lifted to sparse global columns.  Returns those columns as one CSC
    matrix, the indices of the flagged subdomains (regularized, or solved
    densely after ARPACK failed), and per subdomain the mode count and the
    number of pairs that the residual contract rejected.
    """
    rows, vals = [], []
    flags = []
    counts = []
    rejected = []
    for sd, lift, flagged, pairs in _solved_pencils(dec, pencil, selection):
        if flagged or pairs.fallback:
            flags.append(sd.index)
        rejected.append(pairs.rejected)
        counts.append(len(pairs))
        for p in pairs:
            rows.append(sd.dofs)
            vals.append(lift(p.vector))
        del lift  # before the next pencil is built
    Z = sp.csc_matrix((np.concatenate([np.empty(0)] + vals),
                       np.concatenate([np.empty(0, np.int64)] + rows),
                       np.cumsum([0] + [r.size for r in rows])), shape=(dec.n_dofs, len(rows)))
    return Z, flags, counts, rejected


def _symmetric_lu(B: sp.spmatrix):
    """SuperLU factor of the sparse real symmetric B with diagonal pivots
    (symmetric mode, minimum degree on A^T + A), and whether B is SPD: it is
    when every pivot is diagonal (perm_r == perm_c), for then the pivots are
    the D of B = L D L^T, and above 1e-14 * max|B|, the pivot rule of
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
    floor = 1e-14 * np.abs(B.data).max()
    return lu, bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > floor))


def _sparse_spd_or_shifted(rhs: sp.spmatrix):
    """The real symmetric right side of a local pencil, shifted by 1e-12
    times its mean diagonal when the SPD test of ``_symmetric_lu`` fails;
    returns the ``Factorization`` of the (shifted) matrix, carrying it, and
    whether it was shifted.  No dense array is formed.  Raises
    SingularityError when the shifted matrix cannot be factored."""
    n = rhs.shape[0]
    lu, spd = _symmetric_lu(rhs)
    if spd:
        return Factorization(lu, n, rhs), False
    rhs = (rhs + (1e-12 * rhs.diagonal().sum() / n) * sp.eye(n)).tocsr()
    lu, _ = _symmetric_lu(rhs)
    if lu is None:
        raise SingularityError("shift-regularized right side is singular")
    return Factorization(lu, n, rhs), True


def _spectral_cs(dec: Decomposition, system: AssembledSystem, provenance: str,
                 pencil, selection: EigenSelection) -> CoarseSpace:
    """A Helmholtz spectral coarse space: the independent columns of
    ``_local_modes``."""
    Z, flags, counts, rejected = _local_modes(dec, pencil, selection)
    return CoarseSpace(_independent_columns(Z), system.A, provenance=provenance,
                       flags=flags, per_subdomain=counts, rejected=rejected)


def _dtn_pencil(sd):
    """DtN pencil S u = lambda M_Gamma u of one subdomain: S is the interface
    Schur complement of the Neumann matrix, shift-regularized (flagged) when
    the interior block is singular, and the lift is the discrete Helmholtz
    extension weighted with the partition of unity."""
    gam = sd.interface_dofs
    interior = np.setdiff1d(np.arange(sd.n_local), gam)
    At = sd.neumann
    A_II = At[np.ix_(interior, interior)].tocsc()
    flagged = False
    try:
        fact = lu_factorize(A_II, ordering="MMD_AT_PLUS_A")
    except SingularityError:
        eps = 1e-10 * max(np.abs(A_II.data).max(), 1.0)
        fact = lu_factorize(A_II + eps * sp.eye(A_II.shape[0]), ordering="MMD_AT_PLUS_A")
        flagged = True
        warnings.warn(f"subdomain {sd.index}: interior block shift-regularized")
    X = fact.solve(At[np.ix_(interior, gam)].toarray())  # A_II^-1 A_IG
    S = At[np.ix_(gam, gam)].toarray() - At[np.ix_(gam, interior)].toarray() @ X
    M_G = sd.interface_mass[np.ix_(gam, gam)].toarray()

    def lift(u):
        v = np.zeros(sd.n_local, dtype=np.complex128)
        v[gam] = u
        v[interior] = -X @ u
        return sd.weights * v

    return S, M_G, lift, flagged


def build_dtn_cs(dec: Decomposition, system: AssembledSystem,
                 selection: EigenSelection = EigenSelection("re_below", None, 20)
                 ) -> CoarseSpace:
    """DtN coarse space: interface modes with Re(lambda) below the local
    wavenumber, lifted into the subdomain by the discrete Helmholtz extension
    and weighted with the partition of unity."""

    def pencil(sd):
        if sd.interface_dofs is None or sd.interface_dofs.size == 0:
            warnings.warn(f"subdomain {sd.index} has an empty interface; skipped")
            return None
        if selection.rule == "re_below" and selection.threshold is None and sd.k_max <= 0:
            return None  # Laplace limit: Re(lambda) < k_j = 0 selects nothing
        return _dtn_pencil(sd)

    return _spectral_cs(dec, system, "dtn", pencil, selection)


def build_hgeneo_cs(dec: Decomposition, system: AssembledSystem,
                    selection: EigenSelection = EigenSelection("abs_largest", None, 20)
                    ) -> CoarseSpace:
    """H-GenEO: subdomain eigenproblems D_j L_j D_j u = lambda A~_j u with the
    Laplacian left-hand side and the Helmholtz Neumann matrix on the right.

    Default selection keeps the m_max modes of largest |lambda| per
    subdomain: these are the local quasi-resonances (small Helmholtz energy
    against Laplacian energy), which measurably capture the slow error of the
    one-level method, whereas a real-part threshold mostly picks bulk modes
    clustered near lambda = 1.  The modes are lifted by plain zero extension:
    a partition-of-unity-weighted lift consistently needs noticeably more
    modes for the same iteration counts on wave problems.
    """
    L = system.L

    def pencil(sd):
        D = sp.diags(sd.weights)
        return D @ L[np.ix_(sd.dofs, sd.dofs)] @ D, sd.neumann, lambda u: u, False

    return _spectral_cs(dec, system, "hgeneo", pencil, selection)


def build_deltageneo_cs(dec: Decomposition, problem: HelmholtzProblem,
                        system: AssembledSystem,
                        selection: EigenSelection = EigenSelection("re_above", 0.5, 20)
                        ) -> CoarseSpace:
    """GenEO on the nearby positive operator -lap + k^2 (zeroth-order sign
    flipped, impedance dropped): D_j A+_j D_j u = lambda A~+_j u."""
    Apos = (system.L + system.weighted_mass).real.tocsr()

    def pencil(sd):
        D = sd.weights
        lhs = sp.diags(D) @ Apos[np.ix_(sd.dofs, sd.dofs)] @ sp.diags(D)
        rhs, flagged = _sparse_spd_or_shifted(assemble_helmholtz_subset(
            problem, sd.elements, sd.dofs, sign_w=+1.0, impedance=False,
            dirichlet_dofs=system.dirichlet_dofs,
        ).real)
        return lhs, rhs, lambda u: D * u, flagged

    return _spectral_cs(dec, system, "deltageneo", pencil, selection)
