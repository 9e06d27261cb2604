"""ORAS, coarse spaces, and two-level combinations."""

import gc
import os
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wavedd import decomposition, schwarz
from wavedd.decomposition import _robin_matrix, assemble_local_matrices, decompose
from wavedd.errors import NumericError, SingularityError, StructuralError
from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz
from wavedd.linalg import (
    EigenPair,
    EigenPairs,
    Factorization,
    KrylovConfig,
    dense_generalized_eig,
    krylov_solve,
    lu_factorize,
    orthonormalize,
    symmetric_lu,
)
from wavedd.maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    assemble_maxwell,
    build_edge_decomposition,
    build_free_cs,
    build_geneo_complement_cs,
)
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.schwarz import (
    CoarseSpace,
    EigenSelection,
    OneLevel,
    TwoLevel,
    build_deltageneo_cs,
    build_dtn_cs,
    build_grid_cs,
    build_hgeneo_cs,
)
from wavedd.velocity import VelocityModel


def _setup(nx=12, ny=12, N=4, omega=2 * np.pi * 2, order=2, model=None,
           shape="grid", grid=(2, 2), width=1.0, height=1.0, refine=0):
    base = build_rect_mesh(width, height, nx, ny, order=order)
    mesh = refine_uniform(base, refine) if refine else base
    prob = HelmholtzProblem(
        mesh=mesh,
        model=model or VelocityModel.constant(1.0),
        omega=omega,
        source=PointSource(width * 0.5, height * 0.9),
    )
    sys = assemble_helmholtz(prob)
    if N == 1:
        dec = decompose(mesh, 1)
    else:
        dec = decompose(mesh, N, shape=shape, grid=grid if shape == "grid" else None)
    assemble_local_matrices(dec, prob, sys)
    return base, mesh, prob, sys, dec


@pytest.fixture
def no_local_factors(monkeypatch):
    """``assemble_local_matrices`` attaches no Robin factors.  At omega = 0
    the Robin matrices are singular Neumann matrices; the tests that use this
    read only the Neumann matrices and the interface data."""
    monkeypatch.setattr(decomposition, "lu_factorize", lambda *args, **kwargs: None)


def _iterations(sys, M, tol=1e-6, max_iter=400):
    _, rep = krylov_solve(sys.A, M, sys.b, KrylovConfig(tol=tol, max_iter=max_iter))
    assert rep.converged
    return rep.iterations


# --------------------------------------------------------------- one-level


def test_single_domain_is_exact_solve():
    _, _, _, sys, dec = _setup(N=1)
    one = OneLevel(dec)
    assert _iterations(sys, one.apply, tol=1e-10) == 1


def test_apply_zero_is_zero():
    _, _, _, sys, dec = _setup()
    one = OneLevel(dec)
    assert np.all(one.apply(np.zeros(dec.n_dofs)) == 0)


def test_oras_matches_dense_assembly():
    """Explicit dense sum R^T W F^-1 R equals the operator application: for
    ORAS (Robin F, W = D) and for Maxwell additive Schwarz (Dirichlet F,
    W = I), whose real factors take the complex vector too."""
    _, _, prob, sys, dec = _setup(nx=6, ny=6, N=2, shape="strips", order=1)
    oras = (dec, [(_robin_matrix(prob, sd)[0], sd.weights) for sd in dec.subdomains])
    mprob = MaxwellProblem(mesh=build_rect_mesh(1.0, 1.0, 6, 6), alpha=1e-2)
    edec = build_edge_decomposition(mprob, assemble_maxwell(mprob), 2, shape="strips")
    additive = (edec, [(sd.A_loc, np.ones(sd.n_local)) for sd in edec.subdomains])
    assert dec.restricted and not edec.restricted
    rng = np.random.default_rng(3)
    for dec, local in (oras, additive):
        n = dec.n_dofs
        M = np.zeros((n, n), dtype=complex)
        for sd, (F, W) in zip(dec.subdomains, local):
            R = np.zeros((sd.n_local, n))
            R[np.arange(sd.n_local), sd.dofs] = 1.0
            M += R.T @ (W[:, None] * np.linalg.inv(F.toarray())) @ R
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(OneLevel(dec).apply(v) - M @ v) / np.linalg.norm(M @ v) < 1e-12


def test_one_level_names_a_subdomain_without_factor():
    """``OneLevel`` names the first subdomain that lacks a local factor."""
    _, _, _, _, dec = _setup()
    dec.subdomains[2].factor = None
    with pytest.raises(StructuralError, match="subdomain 2 has no local factorization"):
        OneLevel(dec)


def test_one_level_does_not_pin_its_decomposition():
    """An ORAS ``OneLevel`` keeps its subdomains' dofs, factors and weights,
    not the decomposition: once the caller drops ``dec`` it is collected,
    and the apply returns the same array, bit for bit."""
    _, _, _, _, dec = _setup(nx=6, ny=6, N=2, shape="strips", order=1)
    one = OneLevel(dec)
    v = np.random.default_rng(5).standard_normal(dec.n_dofs) + 0j
    before = one.apply(v)
    ref = weakref.ref(dec)
    del dec
    gc.collect()
    assert ref() is None
    assert np.array_equal(one.apply(v), before)


def test_oras_linear():
    _, _, _, sys, dec = _setup()
    one = OneLevel(dec)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(dec.n_dofs)
    v = rng.standard_normal(dec.n_dofs)
    lhs = one.apply(u + 2j * v)
    rhs = one.apply(u) + 2j * one.apply(v)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_thread_safe_concurrent_apply():
    from concurrent.futures import ThreadPoolExecutor

    _, _, _, sys, dec = _setup()
    one = OneLevel(dec)
    v = np.random.default_rng(0).standard_normal(dec.n_dofs)
    expect = one.apply(v)
    with ThreadPoolExecutor(max_workers=4) as ex:
        results = list(ex.map(lambda _: one.apply(v), range(8)))
    for r in results:
        assert np.array_equal(r, expect)


# --------------------------------------------------------------- grid CS


def test_grid_cs_degenerate_identity():
    _, mesh, prob, sys, dec = _setup(N=1, nx=8, ny=8)
    cs = build_grid_cs(prob, mesh, sys)  # coarse == fine
    one = OneLevel(dec)
    two = TwoLevel(one, cs, sys.A, mode="hybrid")
    assert _iterations(sys, two.apply, tol=1e-10) == 1


def test_grid_cs_reproduces_constants_and_linears():
    base, mesh, prob, sys, dec = _setup(nx=6, ny=6, refine=1)
    cs = build_grid_cs(prob, base, sys)
    ones_c = np.ones(base.n_dofs)
    assert np.allclose(cs.Z @ ones_c, np.ones(mesh.n_dofs), atol=1e-13)
    xs_c = base.dof_coords()[:, 0]
    xs_f = mesh.dof_coords()[:, 0]
    assert np.abs(cs.Z @ xs_c - xs_f).max() < 1e-14


def test_grid_cs_requires_nesting():
    _, mesh, prob, sys, _ = _setup(nx=6, ny=6)
    other = build_rect_mesh(1.0, 1.0, 5, 5, order=2)
    with pytest.raises(StructuralError):
        build_grid_cs(prob, other, sys)


def test_grid_cs_rejects_non_ancestor_of_ancestor_size():
    """A mesh as large as the fine mesh's parent, but not that parent, is not
    a nested coarse mesh."""
    base, _, prob, sys, _ = _setup(nx=6, ny=6, refine=1)
    twin = build_rect_mesh(1.0, 1.0, 6, 6, order=2)
    assert twin.n_triangles == base.n_triangles
    with pytest.raises(StructuralError):
        build_grid_cs(prob, twin, sys)


def test_grid_cs_two_level_improves():
    base, mesh, prob, sys, dec = _setup(nx=10, ny=10, refine=1, N=4,
                                        omega=2 * np.pi * 3)
    one = OneLevel(dec)
    cs = build_grid_cs(prob, base, sys)
    assert _iterations(sys, TwoLevel(one, cs, sys.A).apply) <= _iterations(sys, one.apply)


def test_grid_cs_under_a_dirichlet_outer_boundary():
    """With a Dirichlet outer boundary the grid basis is zero on the
    Dirichlet rows; every coarse function reaches an interior fine DOF, so
    no column is dropped or zero, and the two-level method still takes
    fewer GMRES iterations than the one-level one."""
    base = build_rect_mesh(1.0, 1.0, 6, 6, order=2)
    mesh = refine_uniform(base, 1)
    prob = HelmholtzProblem(mesh=mesh, model=VelocityModel.constant(1.0),
                            omega=2 * np.pi * 2, source=PointSource(0.5, 0.9),
                            outer_bc="dirichlet")
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 4, shape="strips")
    assemble_local_matrices(dec, prob, sys)
    cs = build_grid_cs(prob, base, sys)
    assert sys.dirichlet_dofs.size and cs.n0 == base.n_dofs
    assert cs.Z[sys.dirichlet_dofs].count_nonzero() == 0
    assert spla.norm(cs.Z, axis=0).min() > 0
    one = OneLevel(dec)
    two = TwoLevel(one, cs, sys.A)
    assert _iterations(sys, two.apply, tol=1e-8) < _iterations(sys, one.apply, tol=1e-8)


# --------------------------------------------------------------- DtN CS


@pytest.mark.usefixtures("no_local_factors")
def test_dtn_laplace_analytic_eigenvalues():
    """Strip subdomain of the Laplacian: DtN eigenvalues ~ m pi / L."""
    mesh = build_rect_mesh(2.0, 1.0, 64, 32, order=1)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.constant(1.0), omega=0.0,
        source=PointSource(1.0, 0.5),
    )
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 2, shape="strips")
    assemble_local_matrices(dec, prob, sys)
    S, M, *_ = schwarz._dtn_pencil(dec.subdomains[0])
    pairs = dense_generalized_eig(S, M, which=EigenSelection("re_below", np.inf, S.shape[0]))
    vals = np.sort(np.array([p.value.real for p in pairs]))
    assert abs(vals[0]) < 0.05  # constant mode
    for m in (1, 2, 3):
        assert vals[m] == pytest.approx(m * np.pi, rel=0.05)


def test_dtn_empty_interface_is_flagged_not_warned():
    """A single subdomain has no interface: it gets no DtN modes and is
    flagged, and no warning is raised."""
    _, _, _, sys, dec = _setup(nx=8, ny=8, order=1, N=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs = build_dtn_cs(dec, sys)
    assert cs.n0 == 0 and cs.flags == [0]
    assert cs.per_subdomain == [0] and cs.rejected == [0]


@pytest.mark.usefixtures("no_local_factors")
def test_dtn_empty_selection_falls_back_to_one_level():
    """omega -> 0 gives k_j = 0, so Re(lambda) < k_j selects nothing."""
    mesh = build_rect_mesh(1.0, 1.0, 8, 8, order=1)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.constant(1.0), omega=0.0,
        source=PointSource(0.5, 0.5),
    )
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 4, shape="grid", grid=(2, 2))
    assemble_local_matrices(dec, prob, sys)
    cs = build_dtn_cs(dec, sys)
    assert cs.n0 == 0
    # empty coarse space: the two-level operator equals the one-level one
    for sd in dec.subdomains:
        sd.factor = lu_factorize(_robin_matrix(prob, sd)[0] + 1e-6j * sp.eye(sd.n_local))
    one = OneLevel(dec)
    two = TwoLevel(one, cs, sys.A)
    v = np.random.default_rng(0).standard_normal(dec.n_dofs)
    assert np.array_equal(two.apply(v), one.apply(v))


def test_dtn_two_level_beats_one_level_on_wedge():
    model = VelocityModel.layered_wedge([1.0, 2.0, 5.0], [(0.4, 0.05), (0.7, -0.05)])
    _, _, prob, sys, dec = _setup(nx=40, ny=40, N=2, shape="strips",
                                  omega=2 * np.pi * 5, order=1, model=model)
    one = OneLevel(dec)
    cs = build_dtn_cs(dec, sys)
    assert cs.n0 > 0
    it_two = _iterations(sys, TwoLevel(one, cs, sys.A).apply)
    it_one = _iterations(sys, one.apply)
    assert it_two < it_one


def test_dtn_selection_monotone_in_threshold():
    """Raising the wavenumber bound never drops previously selected modes."""
    from wavedd.linalg import dense_generalized_eig

    rng = np.random.default_rng(5)
    S = rng.standard_normal((12, 12))
    S = S + S.T + 1j * rng.standard_normal((12, 12)) * 0.1
    M = np.eye(12)
    small = dense_generalized_eig(S, M, which=EigenSelection("re_below", 1.0, 12))
    large = dense_generalized_eig(S, M, which=EigenSelection("re_below", 3.0, 12))
    vals_small = {complex(p.value) for p in small[:6]}
    vals_large = {complex(p.value) for p in large[:6]}
    # capped ascending selection keeps a prefix: small set within large set
    assert vals_small <= vals_large or len(vals_small) == 6


# --------------------------------------------------------------- H-GenEO


@pytest.mark.usefixtures("no_local_factors")
def test_hgeneo_laplace_limit_real_eigenvalues():
    """omega = 0: the pencil D L D u = lambda L~ u is real symmetric; the
    constant mode becomes infinite (singular Neumann B) and is dropped, the
    remaining eigenvalues are real nonnegative."""
    from wavedd.linalg import dense_generalized_eig

    mesh = build_rect_mesh(1.0, 1.0, 8, 8, order=1)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.constant(1.0), omega=0.0,
        source=PointSource(0.5, 0.5),
    )
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 2, shape="strips")
    assemble_local_matrices(dec, prob, sys)
    sd = dec.subdomains[0]
    Ld = sys.L[np.ix_(sd.dofs, sd.dofs)].toarray()
    lhs = (sd.weights[:, None] * Ld) * sd.weights[None, :]
    pairs = dense_generalized_eig(lhs, sd.neumann.toarray(),
                                  which=EigenSelection("re_below", np.inf, sd.n_local))
    assert len(pairs) > 0
    for p in pairs:
        assert abs(p.value.imag) < 1e-10 * max(1.0, abs(p.value))
        assert p.value.real > -1e-10


def test_hgeneo_empty_threshold_equals_one_level():
    _, _, _, sys, dec = _setup(omega=2 * np.pi * 2)
    cs = build_hgeneo_cs(dec, sys, EigenSelection("re_above", np.inf, 20))
    assert cs.n0 == 0
    one = OneLevel(dec)
    two = TwoLevel(one, cs, sys.A)
    v = np.random.default_rng(1).standard_normal(dec.n_dofs)
    assert np.array_equal(two.apply(v), one.apply(v))


def test_hgeneo_two_level_improves_on_wedge():
    # resolved regime (12 ppwl): this is where the method is meant to help
    model = VelocityModel.layered_wedge([1.0, 2.0, 5.0], [(0.4, 0.05), (0.7, -0.05)])
    _, _, prob, sys, dec = _setup(nx=48, ny=48, N=4, shape="grid", grid=(2, 2),
                                  omega=2 * np.pi * 4, order=1, model=model)
    one = OneLevel(dec)
    cs = build_hgeneo_cs(dec, sys)
    it_two = _iterations(sys, TwoLevel(one, cs, sys.A).apply)
    assert it_two < _iterations(sys, one.apply)


# --------------------------------------------------------------- Delta-GenEO


def test_deltageneo_positive_pencil_real():
    _, _, prob, sys, dec = _setup(omega=2 * np.pi * 2, order=1, nx=10, ny=10)
    from wavedd.helmholtz import assemble_helmholtz_subset
    from wavedd.linalg import dense_generalized_eig

    Apos = (sys.L + sys.weighted_mass).real
    sd = dec.subdomains[0]
    lhs = (sd.weights[:, None] * Apos[np.ix_(sd.dofs, sd.dofs)].toarray()) * sd.weights[None, :]
    rhs = assemble_helmholtz_subset(prob, sd.elements, sd.dofs, sign_w=+1.0,
                                    impedance=False).toarray().real
    assert np.linalg.eigvalsh(rhs)[0] > 0  # SPD right-hand side
    pairs = dense_generalized_eig(lhs, rhs, which=EigenSelection("re_below", np.inf, sd.n_local))
    for p in pairs:
        assert abs(p.value.imag) < 1e-10
        assert p.value.real > -1e-10


def test_deltageneo_single_domain_still_converges():
    _, _, prob, sys, dec = _setup(N=1, omega=2 * np.pi * 2)
    one = OneLevel(dec)
    cs = build_deltageneo_cs(dec, prob, sys)
    two = TwoLevel(one, cs, sys.A)
    assert _iterations(sys, two.apply) <= 5


def test_deltageneo_improves_at_low_frequency():
    _, _, prob, sys, dec = _setup(nx=32, ny=32, N=16, shape="grid", grid=(4, 4),
                                  omega=2 * np.pi * 1.0, order=1)
    one = OneLevel(dec)
    cs = build_deltageneo_cs(dec, prob, sys)
    it_one = _iterations(sys, one.apply)
    it_two = _iterations(sys, TwoLevel(one, cs, sys.A).apply)
    assert it_two < it_one


@pytest.mark.usefixtures("no_local_factors")
@pytest.mark.parametrize("freq,flags", [(0.0, [0, 1, 2, 3]), (1.0, [])])
def test_deltageneo_flags_the_shifted_right_sides(freq, flags):
    """At omega = 0 every Delta-GenEO right side is a Neumann Laplacian,
    singular on a strip that touches no Dirichlet boundary: each is shifted
    and its subdomain flagged.  At 1 Hz the k^2 mass term makes them SPD."""
    _, _, prob, sys, dec = _setup(nx=12, ny=12, N=4, shape="strips", order=1,
                                  omega=2 * np.pi * freq)
    assert build_deltageneo_cs(dec, prob, sys).flags == flags


# --------------------------------------------------------------- two-level algebra


def test_full_rank_coarse_space_one_iteration():
    _, mesh, prob, sys, dec = _setup(nx=8, ny=8, N=4)
    one = OneLevel(dec)
    cs = build_grid_cs(prob, mesh, sys)  # Z = I
    assert cs.n0 == mesh.n_dofs
    assert _iterations(sys, TwoLevel(one, cs, sys.A, mode="hybrid").apply,
                       tol=1e-10) == 1


def test_coarse_projection_identity():
    """H A H = H on a small dense instance."""
    _, _, _, sys, dec = _setup(nx=6, ny=6, order=1, N=2, shape="strips")
    cs = build_dtn_cs(dec, sys)
    n = dec.n_dofs
    A = sys.A.toarray()
    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        H[:, i] = cs.apply(e)
    HAH = H @ A @ H
    assert np.abs(HAH - H).max() <= 1e-12 * max(np.abs(H).max(), 1.0)


def test_hybrid_coarse_exactness():
    """M2^-1 A acts as the identity on range(Z)."""
    _, _, _, sys, dec = _setup(nx=8, ny=8, order=1, N=4, omega=2 * np.pi * 2)
    one = OneLevel(dec)
    cs = build_dtn_cs(dec, sys)
    assert cs.n0 > 0
    two = TwoLevel(one, cs, sys.A, mode="hybrid")
    A = sys.A
    rng = np.random.default_rng(2)
    y = cs.Z @ (rng.standard_normal(cs.n0) + 1j * rng.standard_normal(cs.n0))
    out = two.apply(A @ y)
    assert np.linalg.norm(out - y) / np.linalg.norm(y) <= 1e-10


def test_additive_mode():
    _, _, _, sys, dec = _setup(nx=8, ny=8, order=1, N=4, omega=2 * np.pi * 2)
    one = OneLevel(dec)
    cs = build_dtn_cs(dec, sys)
    two = TwoLevel(one, cs, sys.A, mode="additive")
    v = np.random.default_rng(0).standard_normal(dec.n_dofs)
    assert np.allclose(two.apply(v), one.apply(v) + cs.apply(v), atol=1e-13)


def _coarse_test_operator(n, seed=0):
    """Sparse complex symmetric, diagonally dominant test operator."""
    off = sp.random(n, n, density=0.01, random_state=seed)
    return (0.1 * (off + off.T) + sp.diags(np.linspace(2.0, 4.0, n) + 1j)).tocsr()


def _coarse_basis(kind, n, n0, rng):
    if kind == "dense complex":
        Z = rng.standard_normal((n, n0)) + 1j * rng.standard_normal((n, n0))
        return np.linalg.qr(Z)[0]
    if kind == "dense real":
        return np.linalg.qr(rng.standard_normal((n, n0)))[0]
    if kind == "sparse real":
        return (sp.random(n, n0, density=0.1, random_state=3) + sp.eye(n, n0)).tocsr()
    return np.empty((n, 0), dtype=np.complex128)


@pytest.mark.parametrize("kind", ["dense complex", "dense real", "sparse real", "empty"])
def test_coarse_apply_matches_dense_oracle(kind):
    """H v = Z E^-1 Z* v against a dense solve with E = Z* A Z."""
    n, n0 = 120, 15
    rng = np.random.default_rng(4)
    A = _coarse_test_operator(n)
    Z = _coarse_basis(kind, n, n0, rng)
    cs = CoarseSpace(Z, A, provenance="test")
    Zd = Z.toarray() if sp.issparse(Z) else Z
    E = Zd.conj().T @ (A @ Zd)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = Zd @ np.linalg.solve(E, Zd.conj().T @ v)
    out = cs.apply(v)
    assert out.shape == (n,)
    assert np.linalg.norm(out - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def test_empty_coarse_apply_keeps_the_input_type():
    """The correction of an empty space is zero in the type that Z and v
    give: real for a real basis and a real vector, complex otherwise."""
    n = 30
    A = _coarse_test_operator(n)
    v = np.random.default_rng(2).standard_normal(n)
    real = CoarseSpace(np.empty((n, 0)), A, provenance="test")
    out = real.apply(v)
    assert out.dtype == np.float64 and out.shape == (n,) and not out.any()
    assert real.apply(v + 1j).dtype == np.complex128
    assert CoarseSpace(np.empty((n, 0), dtype=np.complex128), A,
                       provenance="test").apply(v).dtype == np.complex128


def test_coarse_matrix_of_hermitian_operator_is_exactly_hermitian():
    """E of a real symmetric A and a random sparse Z has E = E* = E^T entry
    for entry, with no option asked, and agrees with Z* A Z to rounding."""
    n, n0 = 300, 40
    off = sp.random(n, n, density=0.02, random_state=8)
    A = (off + off.T + sp.diags(np.linspace(2.0, 4.0, n))).tocsr()
    Z = sp.random(n, n0, density=0.1, random_state=9) + sp.eye(n, n0)
    cs = CoarseSpace(Z, A, provenance="test")
    assert (cs.E - cs.E.T).count_nonzero() == 0
    E = (Z.T @ A @ Z).toarray()
    assert np.abs(cs.E.toarray() - E).max() <= 1e-13 * np.abs(E).max()


def test_coarse_dependent_columns_raise():
    """Two equal columns make E singular; the pivot check must catch it."""
    rng = np.random.default_rng(5)
    Z = np.linalg.qr(rng.standard_normal((80, 6)) + 1j * rng.standard_normal((80, 6)))[0]
    Z = np.column_stack([Z, Z[:, 2]])
    with pytest.raises(SingularityError):
        CoarseSpace(Z, _coarse_test_operator(80), provenance="test")


def test_coarse_apply_makes_no_copy_of_z():
    """The restriction Z* v conjugates v, not Z: the traced peak of one
    apply stays far below the size of Z."""
    n, n0 = 3000, 200
    rng = np.random.default_rng(6)
    Z = np.linalg.qr(rng.standard_normal((n, n0)) + 1j * rng.standard_normal((n, n0)))[0]
    cs = CoarseSpace(Z, _coarse_test_operator(n), provenance="test")
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        cs.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes / 10


def test_coarse_matrix_makes_no_copy_of_basis():
    """E = B* A B is bit-identical to the conjugated-copy formula, and its
    build holds neither a conjugated copy of B nor all of A B at once."""
    n, n0 = 3000, 200
    rng = np.random.default_rng(7)
    B = sp.csc_matrix(np.linalg.qr(rng.standard_normal((n, n0))
                                   + 1j * rng.standard_normal((n, n0)))[0])
    A = _coarse_test_operator(n)
    tracemalloc.start()
    try:
        cs = CoarseSpace(B, A, provenance="test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(cs.Z.data, B.data)  # stored once, not copied
    assert np.array_equal(cs.E.toarray(), (B.conj().T @ (A @ B)).toarray())
    assert peak < 1.25 * (B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


def test_spectral_bases_independent_and_coarse_wellconditioned():
    """The sparse basis of each spectral space has the unit-norm, clearly
    independent columns that ``_independent_columns`` keeps."""
    model = VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.0)])
    _, _, prob, sys, dec = _setup(nx=16, ny=16, N=4, order=1,
                                  omega=2 * np.pi * 3, model=model)
    for cs in (build_dtn_cs(dec, sys), build_hgeneo_cs(dec, sys),
               build_deltageneo_cs(dec, prob, sys)):
        if cs.n0 == 0:
            continue
        assert np.abs(spla.norm(cs.Z, axis=0) - 1.0).max() < 1e-12
        assert np.linalg.svd(cs.Z.toarray(), compute_uv=False).min() > 1e-6
        assert np.linalg.cond(cs.E.toarray()) < 1e12


def _projector_gap(Z1, Z2):
    Q1, Q2 = orthonormalize(Z1), orthonormalize(Z2)
    return np.linalg.norm(Q1 @ Q1.conj().T - Q2 @ Q2.conj().T, 2)


def test_spectral_spaces_span_the_raw_columns(monkeypatch):
    """The sparse basis of each spectral space spans what the orthonormalized
    raw lifted columns span, with the n0 and mode counts of that dense path."""
    model = VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.0)])
    _, _, prob, sys, dec = _setup(nx=16, ny=16, N=4, order=1,
                                  omega=2 * np.pi * 3, model=model)
    raw = []
    real = schwarz._independent_columns

    def recording(Z):
        raw.append(Z)
        return real(Z)

    monkeypatch.setattr(schwarz, "_independent_columns", recording)
    for build, n0, counts in ((lambda: build_dtn_cs(dec, sys), 29, [8, 7, 7, 7]),
                              (lambda: build_hgeneo_cs(dec, sys), 80, [20] * 4),
                              (lambda: build_deltageneo_cs(dec, prob, sys), 80, [20] * 4)):
        cs = build()
        dense = raw[-1].toarray()
        assert sp.issparse(cs.Z) and cs.per_subdomain == counts
        assert cs.n0 == orthonormalize(dense).shape[1] == n0
        assert _projector_gap(cs.Z.toarray(), dense) <= 1e-10


def _serial_local_modes(dec, pencil):
    """Reference for ``schwarz._local_modes``: one pencil after another on
    the calling thread, the lifted columns in subdomain order."""
    cols = []
    for sd in dec.subdomains:
        lhs, rhs, which, lift, _ = pencil(sd)
        for p in dense_generalized_eig(lhs, rhs, which=which):
            col = np.zeros(dec.n_dofs, dtype=complex)
            col[sd.dofs] = lift(p.vector)
            cols.append(sp.csc_matrix(col[:, None]))
    return sp.hstack(cols, format="csc")


def _wedge5():
    model = VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.0)])
    return _setup(nx=20, ny=10, N=5, shape="strips", order=1, width=2.0,
                  omega=2 * np.pi * 3, model=model)


def test_overlapped_local_modes_match_a_serial_loop(monkeypatch):
    """The DtN and H-GenEO bases built with two eigensolves in flight are the
    bases of a serial loop, bit for bit; built twice each, so that the order
    in which the threads finish cannot show."""
    _, _, _, sys, dec = _wedge5()
    seen = []
    real = schwarz._local_modes

    def recording(dec, pencil):
        seen.append(pencil)
        return real(dec, pencil)

    monkeypatch.setattr(schwarz, "_local_modes", recording)
    for build in (build_dtn_cs, build_hgeneo_cs):
        for _ in range(2):
            cs = build(dec, sys)
            ref = schwarz._independent_columns(_serial_local_modes(dec, seen[-1]))
            assert cs.n0 > 0 and cs.rejected == [0] * 5
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(cs.Z, part), getattr(ref, part))


def test_complex_pencils_are_solved_two_at_a_time(monkeypatch):
    """H-GenEO pencils are solved by the pool, on at most two threads and
    never on the calling thread; the Delta-GenEO pencils are real and stay
    on the calling thread.  Both arrive sparse, the Delta-GenEO right side
    as the ``Factorization`` of its SPD test: ``dense_generalized_eig``
    alone densifies them."""
    _, _, prob, sys, dec = _wedge5()
    threads, forms = [], []
    real = schwarz.dense_generalized_eig

    def recording(lhs, rhs, which=None):
        threads.append(threading.get_ident())
        forms.append((sp.issparse(lhs), sp.issparse(rhs), isinstance(rhs, Factorization)))
        return real(lhs, rhs, which=which)

    monkeypatch.setattr(schwarz, "dense_generalized_eig", recording)
    build_hgeneo_cs(dec, sys)
    main = threading.get_ident()
    assert len(threads) == 5 and main not in threads and len(set(threads)) <= 2
    assert forms == [(True, True, False)] * 5
    threads.clear()
    forms.clear()
    build_deltageneo_cs(dec, prob, sys)
    assert threads == [main] * 5
    assert forms == [(True, False, True)] * 5


def test_pencils_arrive_in_order_when_solves_finish_out_of_order(monkeypatch):
    """Pencil 0's solve waits until pencil 1's has ended, yet the pairs
    arrive in subdomain order; no more than two solves are ever in flight,
    and two are while pencil 0 waits.  Each stand-in pencil's complex
    1 x 1 left side holds its subdomain index, which is also the subdomain's
    one dof and the entry of the vector that its solve returns."""
    dec = SimpleNamespace(n_dofs=6, subdomains=[SimpleNamespace(index=j, dofs=np.array([j]))
                                                for j in range(6)])
    which = EigenSelection("abs_largest", None, 1)

    def pencil(sd):
        return np.full((1, 1), sd.index + 0j), np.eye(1), which, lambda u: u, False

    lock = threading.Lock()
    in_flight, peak, finished = 0, 0, []
    one_done = threading.Event()

    def solve(lhs, rhs, which=None):
        nonlocal in_flight, peak
        j = int(lhs[0, 0].real)
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        if j == 0:
            assert one_done.wait(30)
        time.sleep(0.01)
        with lock:
            in_flight -= 1
            finished.append(j)
        if j == 1:
            one_done.set()
        return EigenPairs([EigenPair(complex(j), np.full(1, complex(j)))])

    monkeypatch.setattr(schwarz, "dense_generalized_eig", solve)
    Z, _ = schwarz._local_modes(dec, pencil)
    got = [(int(Z.indices[c]), [Z.data[c]]) for c in range(Z.shape[1])]
    assert got == [(j, [j]) for j in range(6)]
    assert finished.index(1) < finished.index(0)
    assert peak == 2


def test_failed_pencil_solve_is_raised_and_leaves_no_thread(monkeypatch):
    """A NumericError of one H-GenEO pencil's solve reaches the builder,
    and no thread of the pool is still running when it does."""
    _, _, _, sys, dec = _wedge5()
    real = schwarz.dense_generalized_eig
    lock = threading.Lock()
    calls = []

    def failing(lhs, rhs, which=None):
        with lock:
            calls.append(threading.get_ident())
            third = len(calls) == 3
        if third:
            raise NumericError("generalized eigensolve failed: injected")
        return real(lhs, rhs, which=which)

    monkeypatch.setattr(schwarz, "dense_generalized_eig", failing)
    before = set(threading.enumerate())
    with pytest.raises(NumericError, match="injected"):
        build_hgeneo_cs(dec, sys)
    assert set(threading.enumerate()) <= before


def test_rejected_pairs_counted_on_the_coarse_space(monkeypatch):
    """A pair that fails the residual contract in every H-GenEO subdomain
    is counted on the coarse space, and the next pair takes its place."""
    _, _, _, sys, dec = _wedge5()
    sel = EigenSelection("abs_largest", None, 6)
    clean = build_hgeneo_cs(dec, sys, sel)
    assert clean.rejected == [0] * 5
    real = np.linalg.eig

    def corrupting(T):
        w, v = real(T)
        v[:, np.argmax(np.abs(w))] = 1.0  # not an eigenvector
        return w, v

    monkeypatch.setattr(np.linalg, "eig", corrupting)
    cs = build_hgeneo_cs(dec, sys, sel)
    assert cs.rejected == [1] * 5 and cs.per_subdomain == clean.per_subdomain == [6] * 5


def test_spectral_space_drops_duplicate_complex_column():
    _, _, _, sys, dec = _setup(nx=8, ny=8, order=1, N=4, omega=2 * np.pi * 2)
    cs = build_hgeneo_cs(dec, sys)
    B = cs.Z
    Z = schwarz._independent_columns(sp.hstack([B, (2.0 - 1.0j) * B[:, [5]]]))
    twin = CoarseSpace(Z, sys.A, provenance="test")
    assert twin.n0 == cs.n0
    assert np.allclose(spla.norm(Z, axis=0), 1.0, atol=1e-14)
    assert _projector_gap(Z.toarray(), B.toarray()) <= 1e-10


def _unit_columns(Z):
    return Z @ sp.diags(1.0 / spla.norm(Z, axis=0))


def test_kept_columns_stay_and_appended_ones_are_tested():
    """With ``kept``, the appended columns are tested against the kept ones
    and each other: one in the span of the kept columns is dropped, and of
    a column and its negative the first is kept.  Every kept column stays,
    even one that a test of all columns drops (residual 3e-7 of its norm
    against the others), and the output is the kept columns and the first of
    the pair, scaled to unit norm, in input order."""
    n, k = 200, 12
    rng = np.random.default_rng(21)
    F = (sp.random(n, k, density=0.1, random_state=21) + sp.eye(n, k)).tocsc()
    e = rng.standard_normal(n)
    near = F[:, [0]] + sp.csc_matrix(3e-7 * spla.norm(F[:, 0]) / np.linalg.norm(e) * e[:, None])
    y = rng.standard_normal(n)
    Y = np.column_stack([F @ rng.standard_normal(k), y, -y])
    F = sp.hstack([F, near])
    Z = sp.hstack([F, Y], format="csc")
    assert schwarz._independent_columns(Z).shape[1] == k + 1  # a kept column is dropped
    out = schwarz._independent_columns(Z, kept=k + 1)
    assert np.array_equal(out.toarray(), _unit_columns(Z)[:, np.r_[:k + 1, k + 2]].toarray())
    with pytest.raises(SingularityError):  # the kept block must be independent
        schwarz._independent_columns(sp.hstack([F, F[:, [3]], Y]), kept=k + 2)


def test_hgeneo_build_stays_below_one_dense_basis():
    """The H-GenEO build never holds a dense n x n0 complex array."""
    _, _, _, sys, dec = _setup(nx=128, ny=16, N=32, shape="strips", order=1,
                               width=8.0, omega=2 * np.pi * 2)
    tracemalloc.start()
    try:
        cs = build_hgeneo_cs(dec, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs.n0 == 32 * 20
    assert peak < 16 * dec.n_dofs * cs.n0


def _path_laplacian(n, shift=0.0):
    """The Laplacian of the path graph on n nodes, plus shift on the diagonal."""
    main = np.full(n, 2.0 + shift)
    main[[0, -1]] -= 1.0
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1], format="csr")


def _grid_laplacian(m, seed):
    """The Laplacian of the m x m grid graph with edge weights drawn from
    uniform(0.5, 2): singular PSD, its kernel the constants."""
    rng = np.random.default_rng(seed)
    idx = np.arange(m * m).reshape(m, m)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    W = sp.coo_matrix((rng.uniform(0.5, 2.0, i.size), (i, j)), shape=(m * m, m * m))
    W = (W + W.T).tocsr()
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def test_sparse_spd_test_keeps_an_spd_matrix_and_its_factor():
    """An SPD matrix factors with diagonal pivots only, all positive; it is
    returned unshifted, as the factor's own matrix, and the factor solves it."""
    B = _path_laplacian(40, shift=0.1)
    sym, spd = symmetric_lu(B)
    lu = sym._lu  # SuperLU's own factor, with its permutations and U
    assert spd and np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0
    fact, flagged = schwarz._sparse_spd_or_shifted(B)
    assert not flagged and fact.matrix is B
    b = np.random.default_rng(0).standard_normal(40)
    assert np.linalg.norm(B @ fact.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("case", ["graph_laplacian", "indefinite", "zero_diagonal"])
def test_sparse_spd_test_shifts_and_flags_what_is_not_spd(case):
    """A singular PSD matrix (a graph Laplacian; also a weighted one whose
    pivots are all diagonal and positive), an indefinite one with a positive
    diagonal (a negative diagonal pivot) and one with a zero diagonal
    (off-diagonal pivots, all positive) are not SPD: each gains 1e-12 times
    its mean diagonal on the diagonal, stays sparse, and is flagged."""
    B = {"graph_laplacian": _path_laplacian(40),
         "indefinite": sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
         "zero_diagonal": sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))}[case]
    sym, spd = symmetric_lu(B)
    lu = getattr(sym, "_lu", None)  # SuperLU's own factor, if splu succeeded
    assert not spd
    if case == "indefinite":
        assert np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() < 0
    if case == "zero_diagonal":
        assert not np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0
    fact, flagged = schwarz._sparse_spd_or_shifted(B)
    n = B.shape[0]
    shift = 1e-12 * B.diagonal().sum() / n
    assert flagged and sp.issparse(fact.matrix)
    assert np.array_equal(fact.matrix.toarray(), (B + shift * sp.eye(n)).toarray())
    b = np.ones(n)
    assert np.allclose(fact.matrix @ fact.solve(b), b, rtol=0, atol=1e-6)
    if case == "graph_laplacian":
        # a weighted grid Laplacian whose pivots are all diagonal and
        # positive: only the floor 1e-14 * max|B| tells that the last one is
        # rounding
        B = _grid_laplacian(8, seed=2)
        sym, spd = symmetric_lu(B)
        lu = sym._lu
        piv = lu.U.diagonal()
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert 0 < piv.min() <= 1e-14 * np.abs(B.data).max() and not spd
        fact, flagged = schwarz._sparse_spd_or_shifted(B)
        shift = 1e-12 * B.diagonal().sum() / 64
        assert flagged and sp.issparse(fact.matrix)
        assert np.array_equal(fact.matrix.toarray(), (B + shift * sp.eye(64)).toarray())
        b = (-1.0) ** np.arange(64)  # orthogonal to the kernel, the constants
        assert np.allclose(fact.matrix @ fact.solve(b), b, rtol=0, atol=1e-6)


def test_sparse_spd_test_counts_a_failed_factorization_as_not_spd():
    """A matrix on which ``splu`` fails (an empty row and column) is not SPD;
    the shifted matrix is factored, and flagged."""
    B = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(RuntimeError):
        spla.splu(B.tocsc())
    assert symmetric_lu(B) == (None, False)
    fact, flagged = schwarz._sparse_spd_or_shifted(B)
    assert flagged and fact.matrix.diagonal()[1] == 1e-12


def test_lu_orderings_of_each_caller(monkeypatch):
    """Symmetric-pattern Helmholtz factors use minimum degree on A^T + A with
    partial pivoting, and the complex coarse matrices COLAMD; the Maxwell
    local factors keep COLAMD, while the SPD Maxwell E, the Gram F^T F of
    the kept free columns that a subdomain's gradients are tested against,
    and the two ASP nodal factors are factored in symmetric mode."""
    orderings = []
    real = spla.splu

    def recording(A, permc_spec=None, **kwargs):
        symmetric = kwargs.get("options", {}).get("SymmetricMode", False)
        orderings.append(permc_spec + (" symmetric" if symmetric else ""))
        return real(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    _, _, _, sys, dec = _setup(nx=6, ny=6, order=1, N=4)
    assert orderings == ["MMD_AT_PLUS_A"] * 4  # Robin
    orderings.clear()
    build_dtn_cs(dec, sys)
    assert orderings == ["MMD_AT_PLUS_A"] * 4 + ["COLAMD"]  # DtN interiors, then E
    orderings.clear()
    prob = MaxwellProblem(mesh=build_rect_mesh(1.0, 1.0, 6, 6))
    msys = assemble_maxwell(prob)
    edec = build_edge_decomposition(prob, msys, 2, shape="strips")
    assert orderings == ["COLAMD"] * 2  # the local Dirichlet factors
    orderings.clear()
    build_free_cs(edec, msys)
    assert orderings == ["MMD_AT_PLUS_A symmetric"] * 2  # F^T F of subdomain 1, then E
    orderings.clear()
    AspPreconditioner(msys)
    assert orderings == ["MMD_AT_PLUS_A symmetric"] * 2  # L~ + alpha Q~, then L


def test_maxwell_coarse_matrix_has_a_diagonal_pivoted_spd_factor():
    """The E of a Maxwell coarse space passes the SPD test of symmetric mode:
    its factor pivots on the diagonal only, and solves E to 1e-12."""
    prob = MaxwellProblem(mesh=build_rect_mesh(1.0, 1.0, 10, 10), alpha=1e-2)
    msys = assemble_maxwell(prob)
    dec = build_edge_decomposition(prob, msys, 4, shape="grid", grid=(2, 2))
    cs = build_geneo_complement_cs(dec, msys)
    lu = cs._fact._lu
    assert cs.n0 > 0 and np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.U.diagonal().min() > 0
    b = np.random.default_rng(3).standard_normal(cs.n0)
    x = cs._fact.solve(b)
    assert np.linalg.norm(cs.E @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_real_symmetric_indefinite_coarse_matrix_falls_back_to_lu(monkeypatch):
    """A real symmetric A whose E is indefinite fails the SPD test, and E is
    factored by ``lu_factorize``; a singular E of dependent columns raises
    its SingularityError."""
    from wavedd import linalg

    factored = []

    def recording(M, *args, **kwargs):
        factored.append(M)
        return lu_factorize(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "lu_factorize", recording)
    A = sp.csr_matrix(np.diag([2.0, -1.0, 3.0, 1.0]))
    Z = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
    cs = CoarseSpace(Z, A, provenance="test")  # E = [[3, 1], [1, 0]]
    assert len(factored) == 1 and factored[0] is cs.E
    v = np.array([1.0, 2.0, 3.0, 4.0])
    expected = Z @ np.linalg.solve(cs.E.toarray(), Z.T @ v)
    assert np.allclose(cs.apply(v), expected, rtol=1e-14, atol=0)
    with pytest.raises(SingularityError):
        CoarseSpace(sp.csc_matrix(np.array([[1.0, 1.0], [0.0, 0.0]])), sp.eye(2).tocsr(),
                    provenance="test")


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_coarse_apply_restricts_through_the_transpose(dtype):
    """``CoarseSpace.apply`` restricts through the CSR view Z^T: bit for bit
    Z (E^-1 (conj(v) @ Z).conj()), for a real and for a complex Z, and for
    a real and a complex v."""
    n, n0 = 60, 7
    rng = np.random.default_rng(5)
    Z = sp.random(n, n0, density=0.3, random_state=rng, format="csc") + sp.eye(n, n0)
    if dtype is np.complex128:
        Z = (Z + 1j * sp.random(n, n0, density=0.3, random_state=rng)).tocsc()
    A = _path_laplacian(n, shift=1.0)
    cs = CoarseSpace(Z, A, provenance="test")
    assert np.shares_memory(cs._ZT.data, cs.Z.data)
    for v in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        expected = cs.Z @ cs._fact.solve((np.conj(v) @ cs.Z).conj())
        assert np.array_equal(cs.apply(v), expected)


def test_one_level_grows_with_subdomains():
    counts = []
    for N, grid in ((4, (2, 2)), (16, (4, 4))):
        _, _, _, sys, dec = _setup(nx=32, ny=32, order=1, N=N, shape="grid",
                                   grid=grid, omega=2 * np.pi * 4)
        one = OneLevel(dec)
        counts.append(_iterations(sys, one.apply))
    assert counts[1] > counts[0]


def _perfbench_checks():
    """``perfbench.checks``, imported from the repository root."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from perfbench import checks
    finally:
        sys.path.pop(0)
    return checks


def test_every_coarse_basis_is_sparse_and_cheap_to_check():
    """Grid, DtN, H-GenEO, Delta-GenEO and Maxwell GenEO-complement spaces
    each store one sparse Z, so the benchmark's span check passes on them
    without ever holding a dense n x n0 complex array."""
    checks = _perfbench_checks()
    model = VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.0)])
    base, _, prob, hsys, dec = _setup(nx=8, ny=8, N=4, order=1, refine=1,
                                      omega=2 * np.pi * 3, model=model)
    mx_prob = MaxwellProblem(mesh=build_rect_mesh(1.0, 1.0, 8, 8), alpha=1e-2)
    mx = assemble_maxwell(mx_prob)
    mx_dec = build_edge_decomposition(mx_prob, mx, 4, shape="grid", grid=(2, 2))
    A = hsys.A
    spaces = [(build_grid_cs(prob, base, hsys), A), (build_dtn_cs(dec, hsys), A),
              (build_hgeneo_cs(dec, hsys), A), (build_deltageneo_cs(dec, prob, hsys), A),
              (build_geneo_complement_cs(mx_dec, mx), mx.A)]
    rng = np.random.default_rng(3)
    # one check on a throwaway space first: lazy imports do not count
    warm = CoarseSpace(sp.identity(A.shape[0], format="csc")[:, :2], hsys.A, "warm-up")
    assert checks.coarse_reproduces_span(warm, A, rng)
    for cs, A in spaces:
        assert sp.issparse(cs.Z) and cs.n0 > 0, cs.provenance
        tracemalloc.start()
        try:
            ok = checks.coarse_reproduces_span(cs, A, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak < 16 * cs.Z.shape[0] * cs.n0, (cs.provenance, peak)
