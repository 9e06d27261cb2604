"""Schwarz preconditioners for Helmholtz and Maxwell, and the Helmholtz
coarse spaces.

One one-level method, ``OneLevel``, serves both physics:

    M^-1 = sum_j R_j^T W_j F_j^-1 R_j,

ORAS for Helmholtz, with F_j the local Robin (impedance) matrices and
W_j = D_j the partition of unity; additive Schwarz for Maxwell, with F_j
the local Dirichlet matrices and W_j = I.  Each set-up attaches one factor
F_j per subdomain, ``SubdomainData.factor``, and records W_j once for the
decomposition, ``Decomposition.restricted``; ``OneLevel`` reads both and
tells the physics apart by nothing else.  A two-level method adds the
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
the eigenpairs that ``dense_generalized_eig`` selects, and their lift to
sparse global columns.  A builder supplies only its pencil, which carries
everything particular to the method: the two sides, the ``EigenSelection``
of its pairs (re-exported here from ``wavedd.linalg``), the lift, and
whether the subdomain is flagged.  The loop knows no rule of any method;
``_independent_columns`` then keeps the independent columns.  The DtN,
H-GenEO and Delta-GenEO spaces here and Maxwell's GenEO complement are four
pencils on that loop.  DtN's Schur-complement pencil is dense.  The H-GenEO
and Delta-GenEO pencils are sparse matrices, the Delta-GenEO right side
passed as the ``Factorization`` of its SPD test; ``dense_generalized_eig``
densifies them.  The GenEO complement is a ``LinearOperator`` against the
``Factorization`` of its SPD test, which ``dense_generalized_eig`` solves
by ARPACK; a subdomain on which ARPACK fails is re-solved densely and
flagged.  One SPD-or-shift rule, ``_sparse_spd_or_shifted``, regularizes
the real symmetric right sides of Delta-GenEO and the GenEO complement.

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
the calling thread.  No sparse factor is made on a pool thread: ``splu``
releases the GIL, but scipy 1.17.1 does not return the memory of a SuperLU
factor that is freed on another thread than the one that made it.  In a
minimal test (the 5-point Laplacian of a 150 x 150 grid, fill 1.75 M), the
resident size grew by about 19 MB with each factor made on a pool thread
and freed on the calling one, and not at all when both ran on one thread.
So the Robin factors are made serially, though two threads would overlap
them (see ROADMAP's closed list).

The memory rule beside that thread rule: a preconditioner holds only what
its apply reads.  ``OneLevel`` keeps each subdomain's dofs, factor and
weights and the global size, not the decomposition, so a preconditioner that
outlives its set-up does not pin the local matrices, the mesh or anything
else the set-up made; and every sparse factor holds one copy of L and U,
SuperLU's own (``linalg._pivots`` drops the copies its pivot read caches).
The set-up records follow the same rule: a subdomain keeps its factor, not
the Robin matrix that was factored, and ``bench.run_case`` drops the
decomposition, with the Neumann matrices that only the coarse builders read,
before the Krylov solve.

``TwoLevel`` serves Helmholtz and Maxwell alike: with a real A and a real
sparse Z the coarse correction of a real vector is real, so the hybrid form
stays a symmetric preconditioner for CG.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import Decomposition
from .errors import SingularityError, StructuralError
from .helmholtz import (
    AssembledSystem,
    HelmholtzProblem,
    _shape_values,
    assemble_helmholtz_subset,
)
from .linalg import (
    EigenSelection,
    dense_generalized_eig,
    is_symmetric,
    lu_factorize,
    orthonormalize,  # noqa: F401 - perfbench/tracing.py patches this name here
    spd_factorize,
    symmetric_lu,
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
    factor ``sd.factor`` that the set-up attached to each subdomain, the
    Robin factor of ``assemble_local_matrices`` or the Dirichlet factor of
    ``maxwell.build_edge_decomposition``.  W_j is the set-up's decision,
    ``dec.restricted``: the partition of unity D_j (ORAS), or else I
    (additive Schwarz).  The output has the dtype of v and the factors
    combined, so a real Maxwell preconditioner serves GMRES's complex vectors
    as well as CG's.  It keeps no reference to ``dec``, only the local
    triples and n_dofs.  Raises StructuralError naming the first subdomain
    without a factor."""

    def __init__(self, dec: Decomposition):
        self._n = dec.n_dofs
        self._local = []
        for sd in dec.subdomains:
            if sd.factor is None:
                raise StructuralError(f"subdomain {sd.index} has no local factorization")
            self._local.append((sd.dofs, sd.factor, sd.weights if dec.restricted else None))
        self._dtype = np.result_type(*(f.dtype for _, f, _ in self._local))

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self._n, dtype=np.result_type(v, self._dtype))
        for dofs, fact, weights in self._local:
            x = fact.solve(v[dofs])
            out[dofs] += x if weights is None else weights * x
        return out


# a name for OneLevel that only perfbench/workloads.py reads; it goes when
# perfbench imports OneLevel
OneLevelOras = OneLevel


class CoarseSpace:
    """Coarse space on the span of a sparse basis Z, with the factorized
    coarse matrix E = Z* A Z; the coarse correction is H v = Z E^-1 Z* v.

    ``Z`` is the one stored basis, CSC, for every space: grid, spectral and
    Maxwell; the restriction Z* v goes through its transpose, a CSR view of
    the same arrays.  ``E`` is sparse; for a real symmetric A
    (``is_symmetric``), as every Maxwell A is, E is kept exactly symmetric,
    so that H is symmetric to rounding, as CG needs, and factored by
    ``spd_factorize``: in symmetric mode when it is SPD, as it is for
    independent columns.  Any other E is factored by ``lu_factorize``.
    n0 = 0 is a legal empty coarse space.  A
    spectral space records, per subdomain, its
    mode count in ``per_subdomain`` and in ``rejected`` the number of
    eigenpairs that the residual contract of ``dense_generalized_eig``
    dropped.  ``flags`` lists the subdomains whose modes did not come from
    the plain solve of their pencil: the pencil was shift-regularized (a
    singular Neumann matrix or DtN interior block), ARPACK failed on it and
    it was re-solved densely (``EigenPairs.fallback``), or a DtN subdomain
    has an empty interface and so an empty pencil and no modes.
    Raises SingularityError when a pivot of the partial-pivoting factor of E
    falls below 1e-14 * max|E|, the rule of ``lu_factorize``: Z has
    (numerically) dependent columns or the indefinite E is singular.
    """

    def __init__(self, Z, A, provenance: str, flags=None, per_subdomain=None,
                 rejected=None):
        self.provenance = provenance
        self.flags = list(flags or [])
        self.per_subdomain = per_subdomain or []
        self.rejected = rejected or []
        self.Z = sp.csc_matrix(Z)
        self._ZT = self.Z.T
        if self.n0 == 0:
            self._fact = None
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
        if np.iscomplexobj(A) or not is_symmetric(A):
            self._fact = lu_factorize(self.E)
            return
        # a symmetric A makes E symmetric; rounding in the product breaks
        # that, and cond(E) amplifies it into a non-symmetric H
        self.E = (0.5 * (self.E + self.E.T)).tocsc()
        self._fact = spd_factorize(self.E)

    @property
    def n0(self) -> int:
        return self.Z.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Coarse correction H v = Z E^-1 Z* v."""
        if self.n0 == 0:
            return np.zeros(np.shape(v), dtype=np.result_type(v, self.Z.dtype))
        # for a real Z, conj(Z^T conj(v)) is Z^T v bit for bit: no conj copies
        r = self._ZT @ v if self._ZT.dtype.kind != "c" else (self._ZT @ np.conj(v)).conj()
        return self.Z @ self._fact.solve(r)


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
    factored by ``symmetric_lu`` (SingularityError if it is not SPD), and
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
    F, Y = Z[:, :kept], (Z[:, kept:] if kept else Z)  # Z[:, 0:] would copy Z
    G = (Y.conj().T @ Y).toarray(order="F")
    if kept:
        fact, spd = symmetric_lu(F.T @ F)
        if not spd:
            raise SingularityError("the kept columns are not independent")
        B = (F.T @ Y).toarray()
        G -= B.T @ fact.solve(B)
    pstrf, = sla.get_lapack_funcs(("pstrf",), (G,))
    _, piv, rank, _ = pstrf(G, tol=1e-12, overwrite_a=True)
    return Z[:, np.r_[:kept, kept + np.sort(piv[:rank] - 1)]]


# the combinations of ``TwoLevel``; ``bench.RunConfig`` checks its mode here
TWO_LEVEL_MODES = ("additive", "hybrid")


class TwoLevel:
    """Two-level combination of a one-level method and a coarse correction,
    for Helmholtz (ORAS) and Maxwell (additive Schwarz) alike."""

    def __init__(self, one_level, coarse: CoarseSpace, A, mode: str = "hybrid"):
        if mode not in TWO_LEVEL_MODES:
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


# ------------------------------------------------------------------ grid CS


def build_grid_cs(problem: HelmholtzProblem, coarse_mesh: Mesh,
                  system: AssembledSystem) -> CoarseSpace:
    """Nodal interpolation coarse space from a nested coarse mesh: the mesh
    that the problem's mesh was refined from, or that mesh itself.

    Z interpolates every coarse basis function to the fine Lagrange DOFs
    (exact on nested meshes), so coarse == fine gives Z = I.
    """
    fine = problem.mesh
    if coarse_mesh.order != fine.order:
        raise StructuralError("coarse and fine meshes must share the element order")
    if coarse_mesh is fine:
        f2c = np.arange(fine.n_triangles)
    elif fine.parent is coarse_mesh:
        f2c = fine.parent_triangle
    else:
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


def _local_modes(dec: Decomposition, pencil):
    """The loop of every spectral coarse space, Helmholtz and Maxwell alike.

    Per subdomain, ``pencil(sd)`` returns the local pencil (lhs, rhs), the
    ``EigenSelection`` of its pairs, the lift of a local eigenvector to its
    values on ``sd.dofs``, and whether the subdomain is flagged.  A 0 x 0
    pencil gives the subdomain no modes.  The eigenpairs that ``dense_generalized_eig``
    selects are lifted to sparse global columns.  Returns those columns as
    one CSC matrix, and the record that ``CoarseSpace`` takes: ``flags``, the
    indices of the flagged subdomains (by their pencil, or solved densely
    after ARPACK failed), and per subdomain the mode count,
    ``per_subdomain``, and the number of pairs that the residual contract
    rejected, ``rejected``.

    The pencils are built here, one after another.  A complex one is solved
    by a pool of two threads, at most two solves in flight: while both run,
    the next pencil waits for one of them to end.  Real pencils are solved
    here.  The pairs are taken strictly in subdomain order, each as soon as
    every earlier subdomain's have been, so an exception of a solve is
    raised at its subdomain's turn, and the solves still in flight end
    before it leaves.
    """
    rows, vals = [], []
    record = {"flags": [], "per_subdomain": [], "rejected": []}

    def take(sd, lift, flagged, future):
        pairs = future.result()
        if flagged or pairs.fallback:
            record["flags"].append(sd.index)
        record["rejected"].append(pairs.rejected)
        record["per_subdomain"].append(len(pairs))
        for p in pairs:
            rows.append(sd.dofs)
            vals.append(lift(p.vector))

    pending = deque()  # (sd, lift, flagged, future of the pairs), not yet taken
    with ThreadPoolExecutor(max_workers=2) as pool:
        for sd in dec.subdomains:
            lhs, rhs, which, lift, flagged = pencil(sd)
            pooled = np.iscomplexobj(lhs) or np.iscomplexobj(rhs)
            solve = partial(dense_generalized_eig, lhs, rhs, which=which)
            del lhs, rhs  # only ``solve`` holds the pencil
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
                take(*pending.popleft())
        while pending:
            take(*pending.popleft())
    Z = sp.csc_matrix((np.concatenate([np.empty(0)] + vals),
                       np.concatenate([np.empty(0, np.int64)] + rows),
                       np.cumsum([0] + [r.size for r in rows])), shape=(dec.n_dofs, len(rows)))
    return Z, record


def _resolved(pairs) -> Future:
    """A future that is done, with ``pairs`` solved on the calling thread."""
    future = Future()
    future.set_result(pairs)
    return future


def _sparse_spd_or_shifted(rhs: sp.spmatrix):
    """The real symmetric right side of a local pencil, shifted by 1e-12
    times its mean diagonal when the SPD test of ``symmetric_lu`` fails;
    returns the ``Factorization`` of the (shifted) matrix, carrying it, and
    whether it was shifted.  No dense array is formed.  Raises
    SingularityError when the shifted matrix cannot be factored."""
    fact, spd = symmetric_lu(rhs)
    if spd:
        return fact, False
    n = rhs.shape[0]
    fact, _ = symmetric_lu((rhs + (1e-12 * rhs.diagonal().sum() / n) * sp.eye(n)).tocsr())
    if fact is None:
        raise SingularityError("shift-regularized right side is singular")
    return fact, True


def _spectral_cs(dec: Decomposition, system: AssembledSystem, provenance: str,
                 pencil) -> CoarseSpace:
    """A Helmholtz spectral coarse space: the independent columns of
    ``_local_modes``."""
    Z, record = _local_modes(dec, pencil)
    return CoarseSpace(_independent_columns(Z), system.A, provenance=provenance, **record)


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
    X = fact.solve(At[np.ix_(interior, gam)].toarray())  # A_II^-1 A_IG
    S = At[np.ix_(gam, gam)].toarray() - At[np.ix_(gam, interior)].toarray() @ X
    M_G = sd.interface_mass.toarray()

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
    and weighted with the partition of unity.

    A "re_below" threshold of None is the subdomain wavenumber k_j
    (``sd.k_max``); in the Laplace limit, k_j = 0, it selects nothing: the
    pencil is empty, 0 x 0, and the subdomain gets no modes.  A subdomain
    with an empty interface has no DtN modes either: its pencil is empty
    too, and the subdomain is flagged."""

    def no_modes(flagged):
        # ``dense_generalized_eig`` returns no pairs for a 0 x 0 pencil before
        # it reads the selection, so an unresolved threshold is never compared
        empty = np.zeros((0, 0))
        return empty, empty, selection, None, flagged

    def pencil(sd):
        if sd.interface_dofs is None or sd.interface_dofs.size == 0:
            return no_modes(True)
        which = selection
        if selection.rule == "re_below" and selection.threshold is None:
            if sd.k_max <= 0:
                return no_modes(False)
            which = replace(selection, threshold=sd.k_max)
        S, M_G, lift, flagged = _dtn_pencil(sd)
        return S, M_G, which, lift, flagged

    return _spectral_cs(dec, system, "dtn", pencil)


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
        return D @ L[np.ix_(sd.dofs, sd.dofs)] @ D, sd.neumann, selection, lambda u: u, False

    return _spectral_cs(dec, system, "hgeneo", pencil)


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
        return lhs, rhs, selection, lambda u: D * u, flagged

    return _spectral_cs(dec, system, "deltageneo", pencil)
