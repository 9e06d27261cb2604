"""Edge elements, ASP, free/GenEO coarse spaces, spectral bound checks."""

import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wavedd.linalg import (
    Factorization,
    KrylovConfig,
    krylov_solve,
    orthonormalize,
)
from wavedd import maxwell, schwarz
from wavedd.maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    _bj_projector,
    assemble_maxwell,
    build_edge_decomposition,
    build_free_cs,
    build_geneo_complement_cs,
    channel_field,
    fsl_bounds_check,
)
from wavedd.errors import StructuralError
from wavedd.mesh import build_rect_mesh
from wavedd.schwarz import CoarseSpace, OneLevel, TwoLevel, _independent_columns


def _system(nx=12, alpha=1e-2, eps=1.0, mu=1.0, source=None):
    mesh = build_rect_mesh(1.0, 1.0, nx, nx)
    prob = MaxwellProblem(mesh=mesh, mu_r=mu, eps_r=eps, alpha=alpha, source=source)
    return mesh, prob, assemble_maxwell(prob)


def _cg(sys, M, tol=1e-8, max_iter=4000):
    x, rep = krylov_solve(sys.A, M, sys.b,
                          KrylovConfig(tol=tol, variant="cg", max_iter=max_iter))
    return rep


# ----------------------------------------------------------- assembly


def test_single_triangle_curl_rank():
    """Unconstrained single element: one curl DOF, kernel of dimension 2."""
    from wavedd.mesh import mesh_from_arrays

    tri_mesh = mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)], [(0, 1, 2)])
    prob = MaxwellProblem(mesh=tri_mesh, alpha=1.0, bc="natural")
    sys = assemble_maxwell(prob)
    K = sys.K.toarray()
    rank = np.linalg.matrix_rank(K, tol=1e-12)
    assert K.shape == (3, 3)
    assert rank == 1
    assert K.shape[0] - rank == tri_mesh.n_edges - 1 == 2


def test_gradients_in_kernel():
    _, _, sys = _system(nx=9)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(sys.C.shape[1])
    out = sys.K @ (sys.C @ phi)
    assert np.abs(out).max() <= 1e-14 * abs(sys.K).max() * np.abs(phi).max() * 10


def test_kernel_identity_randomized():
    rng = np.random.default_rng(1)
    for trial in range(5):
        nx = int(rng.integers(4, 12))
        mesh = build_rect_mesh(1.0 + rng.random(), 1.0 + rng.random(), nx, nx)
        mu = 1.0 + 9 * rng.random(mesh.n_triangles)
        eps = 10.0 ** rng.uniform(-2, 2, mesh.n_triangles)
        sys = assemble_maxwell(MaxwellProblem(mesh=mesh, mu_r=mu, eps_r=eps, alpha=0.5))
        KC = np.abs((sys.K @ sys.C).toarray()).max() if sys.C.nnz else 0.0
        assert KC <= 1e-13 * abs(sys.K).max()


def test_spd_small_instance():
    _, _, sys = _system(nx=9, alpha=1.0)  # ~200 dofs
    assert sys.n_dofs <= 300
    w = np.linalg.eigvalsh(sys.A.toarray())
    assert w[0] > 0


def test_c_entries_and_row_counts():
    _, _, sys = _system(nx=6)
    C = sys.C.toarray()
    assert set(np.unique(C)).issubset({-1.0, 0.0, 1.0})
    nnz_per_row = (C != 0).sum(axis=1)
    assert nnz_per_row.max() <= 2
    # rows for edges with both endpoints interior have exactly two entries
    mesh = sys.mesh
    both_free = np.all(sys.node_dof[mesh.edges[sys.free_edges]] >= 0, axis=1)
    assert np.all(nnz_per_row[both_free] == 2)


def test_degenerate_element_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    mesh.vertices[4] = mesh.vertices[1]
    with pytest.raises(Exception):
        assemble_maxwell(MaxwellProblem(mesh=mesh, alpha=1.0))


def test_parameter_validation():
    mesh = build_rect_mesh(1, 1, 3, 3)
    with pytest.raises(StructuralError):
        MaxwellProblem(mesh=mesh, alpha=0.0)
    with pytest.raises(StructuralError):
        assemble_maxwell(MaxwellProblem(mesh=mesh, eps_r=-1.0, alpha=1.0))
    p2 = build_rect_mesh(1, 1, 3, 3, order=2)
    with pytest.raises(StructuralError):
        MaxwellProblem(mesh=p2, alpha=1.0)


def test_disjoint_neumann_reassembly():
    """Local Neumann matrices assembled from the owned (disjoint) element
    sets sum back to the global matrix."""
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    mu = 1.0 + np.random.default_rng(2).random(mesh.n_triangles)
    prob = MaxwellProblem(mesh=mesh, mu_r=mu, eps_r=channel_field(mesh, 1e2), alpha=0.5)
    sys = assemble_maxwell(prob)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2), factorize=False)
    n = sys.n_dofs
    acc = np.zeros((n, n), dtype=complex)
    for sd in dec.subdomains:
        gdof = sys.element_edge_dofs()[sd.owned_elements]
        dofs = np.unique(gdof[gdof >= 0])
        local = maxwell.assemble_maxwell_subset(prob, sys, sd.owned_elements, dofs)
        acc[np.ix_(dofs, dofs)] += local.toarray()
    assert np.abs(acc - sys.A.toarray()).max() < 1e-12


def test_asp_nodal_operators_match_p1_closed_form():
    """The nodal Laplacians and mass of ASP against the closed-form P1
    element matrices, grad(lam_i) . grad(lam_j) * area and
    (1 + delta_ij) / 12 * area, summed by a dense loop."""
    rng = np.random.default_rng(5)
    mesh = build_rect_mesh(1.0, 1.0, 6, 6)
    interior = np.all((mesh.vertices > 1e-12) & (mesh.vertices < 1 - 1e-12), axis=1)
    mesh.vertices[interior] += rng.uniform(-0.03, 0.03, (int(interior.sum()), 2))
    mu = 0.5 + rng.random(mesh.n_triangles)
    eps = 10.0 ** rng.uniform(-2, 2, mesh.n_triangles)
    sys = assemble_maxwell(MaxwellProblem(mesh=mesh, mu_r=mu, eps_r=eps, alpha=1.0))
    nn = sys.free_nodes.size
    L, Lmu, Q = np.zeros((nn, nn)), np.zeros((nn, nn)), np.zeros((nn, nn))
    for t, tri in enumerate(mesh.triangles):
        p = mesh.vertices[tri]
        area = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                      - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        grad = np.array([[p[(i + 1) % 3, 1] - p[(i + 2) % 3, 1],
                          p[(i + 2) % 3, 0] - p[(i + 1) % 3, 0]] for i in range(3)]) / (2 * area)
        for i in range(3):
            for j in range(3):
                r, c = sys.node_dof[tri[i]], sys.node_dof[tri[j]]
                if r >= 0 and c >= 0:
                    L[r, c] += grad[i] @ grad[j] * area
                    Lmu[r, c] += grad[i] @ grad[j] * area / mu[t]
                    Q[r, c] += (1.0 + (i == j)) / 12.0 * area * eps[t]
    for got, ref in ((sys.L, L), (sys.Ltilde, sp.block_diag([Lmu, Lmu])),
                     (sys.Qtilde, sp.block_diag([Q, Q]))):
        ref = ref.toarray() if sp.issparse(ref) else ref
        assert np.abs(got.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


# ----------------------------------------------------------- ASP


def test_asp_zero_maps_to_zero():
    _, _, sys = _system()
    asp = AspPreconditioner(sys)
    assert np.all(asp.apply(np.zeros(sys.n_dofs)) == 0)


def test_asp_h_independent():
    counts = []
    for nx in (16, 32, 64):  # two uniform refinements
        _, _, sys = _system(nx=nx, alpha=1e-2)
        counts.append(_cg(sys, AspPreconditioner(sys).apply).iterations)
    assert max(counts) - min(counts) <= 2


def test_asp_degrades_with_contrast():
    mesh = build_rect_mesh(1.0, 1.0, 24, 24)
    base = assemble_maxwell(MaxwellProblem(mesh=mesh, alpha=1e-2))
    b = np.random.default_rng(3).standard_normal(base.n_dofs)
    counts = {}
    for contrast in (1.0, 1e4):
        eps = channel_field(mesh, contrast, n_channels=3)
        sys = assemble_maxwell(MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2,
                                              source=b))
        counts[contrast] = _cg(sys, AspPreconditioner(sys).apply,
                               tol=1e-6, max_iter=20000).iterations
    assert counts[1e4] > counts[1.0]


# ----------------------------------------------------------- Schwarz


def test_one_level_as_solves():
    _, prob, sys = _system(nx=16)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    one = OneLevel(dec)
    rep = _cg(sys, one.apply)
    assert rep.converged


def test_gmres_with_additive_schwarz():
    """GMRES, the default Krylov method, runs with the one-level and the
    two-level (free space) additive Schwarz: the real Dirichlet factors take
    its complex vectors, and each solution matches CG's to 10 x tol."""
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    one = OneLevel(dec)
    cfg = KrylovConfig()
    for M, iterations in ((one, 13), (TwoLevel(one, build_free_cs(dec, sys), sys.A), 11)):
        x, rep = krylov_solve(sys.A, M.apply, sys.b, cfg)
        x_cg, rep_cg = krylov_solve(sys.A, M.apply, sys.b, replace(cfg, variant="cg"))
        assert rep.converged and rep_cg.converged and rep.iterations == iterations
        assert np.linalg.norm(x - x_cg) / np.linalg.norm(x_cg) <= 10 * cfg.tol


def test_free_cs_contains_gradients():
    """A-orthogonal projection onto V_G reproduces every gradient column."""
    _, prob, sys = _system(nx=10)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    free = build_free_cs(dec, sys)
    Z = free.Z.toarray()
    A = sys.A
    E = Z.T @ (A @ Z)
    G = sys.C.toarray()
    proj = Z @ np.linalg.solve(E, Z.T @ (A @ G))
    scale = np.abs(G).max()
    assert np.abs(proj - G).max() <= 1e-10 * max(scale, 1.0)
    assert free.dim_vg >= free.dim_gradient_space


def _raw_free_columns(dec, sys):
    """The free-space columns R_j^T D_j R_j C e_m, dense, before any drop."""
    C = sys.C.tocsc()
    cols = []
    for sd in dec.subdomains:
        Gl = C[sd.dofs, :]
        touching = np.unique(Gl.nonzero()[1])
        block = np.zeros((dec.n_dofs, touching.size))
        block[sd.dofs] = Gl[:, touching].toarray() * sd.weights[:, None]
        cols.append(block)
    return np.hstack(cols)


def _projector_gap(Z1, Z2):
    """||P_1 - P_2||_2 of the orthogonal projectors onto two spans of equal
    dimension, as ||(I - P_1) Q_2||_2 (the sine of the largest principal
    angle), which needs no n x n array."""
    Q1, Q2 = orthonormalize(Z1), orthonormalize(Z2)
    assert Q1.shape == Q2.shape
    return np.linalg.norm(Q2 - Q1 @ (Q1.T @ Q2), 2)


def test_sparse_coarse_spaces_span_the_raw_columns(monkeypatch):
    """Free and GenEO bases are sparse and span what the orthonormalized raw
    columns span; dropping dependent columns loses nothing."""
    _, prob, sys = _system(nx=12)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    free = build_free_cs(dec, sys)
    raw_free = _raw_free_columns(dec, sys)
    assert sp.issparse(free.Z) and (free.E != free.E.T).nnz == 0
    assert free.n0 == free.dim_vg == np.linalg.matrix_rank(raw_free) < raw_free.shape[1]
    assert _projector_gap(free.Z.toarray(), raw_free) <= 1e-10

    inputs = []
    real = maxwell._independent_columns

    def recording(Z, kept=0):
        inputs.append(Z)
        return real(Z, kept)

    monkeypatch.setattr(maxwell, "_independent_columns", recording)
    geneo = build_geneo_complement_cs(dec, sys, tau=1.5, free_cs=free)
    modes = inputs[0].toarray()[:, free.n0:]
    assert sum(geneo.per_subdomain) == modes.shape[1] > 0
    assert sp.issparse(geneo.Z) and geneo.n0 == free.n0 + modes.shape[1]
    assert geneo.dim_vg == free.dim_vg
    assert _projector_gap(geneo.Z.toarray(), np.hstack([raw_free, modes])) <= 1e-10


def test_sparse_coarse_space_drops_duplicate_column():
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 2, shape="strips")
    free = build_free_cs(dec, sys)
    Z = _independent_columns(sp.hstack([free.Z, 3.0 * free.Z[:, [5]]]))
    cs = CoarseSpace(Z, sys.A, provenance="test")
    assert cs.n0 == free.n0
    assert _projector_gap(cs.Z.toarray(), free.Z.toarray()) <= 1e-10


@pytest.fixture(scope="module")
def channel36():
    """The 36-cell eps-channel of the benchmark's Maxwell workload."""
    mesh = build_rect_mesh(1.0, 1.0, 36, 36)
    eps = channel_field(mesh, 1e-4, n_channels=10, width_frac=0.02)
    prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2)
    sys = assemble_maxwell(prob)
    return sys, build_edge_decomposition(prob, sys, 8, shape="grid", grid=(4, 2))


@pytest.mark.parametrize("cells,contrast,n_free,n_geneo", [
    (36, 1e4, 1512, 1514),
    (48, 1.0, 2592, 2592),
    (48, 1e2, 2592, 2596),
    (48, 1e4, 2592, 2596),
])
def test_channel_coarse_dimensions(channel36, cells, contrast, n_free, n_geneo):
    """n0 of the free and GenEO spaces on the channel cases of the benchmark
    and of acceptance criterion 8, as with dense orthonormalized bases."""
    if cells == 36:
        sys, dec = channel36
    else:
        mesh = build_rect_mesh(1.0, 1.0, cells, cells)
        eps = channel_field(mesh, 1.0 / contrast, n_channels=10, width_frac=0.02)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2)
        sys = assemble_maxwell(prob)
        dec = build_edge_decomposition(prob, sys, 8, shape="grid", grid=(4, 2))
    free = build_free_cs(dec, sys)
    geneo = build_geneo_complement_cs(dec, sys, tau=10.0, free_cs=free)
    assert (free.n0, free.dim_vg, geneo.n0, geneo.dim_vg) == (n_free, n_free, n_geneo, n_free)
    assert sum(geneo.per_subdomain) == n_geneo - n_free
    assert sp.issparse(free.Z) and sp.issparse(geneo.Z)


def test_free_cs_build_stays_below_one_dense_basis(channel36):
    """The free build never holds a dense n x n0 array (46 MB here)."""
    sys, dec = channel36
    tracemalloc.start()
    try:
        free = build_free_cs(dec, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dec.n_dofs * free.n0


def test_geneo_complement_tests_only_the_appended_modes(channel36, monkeypatch):
    """On the benchmark channel, testing only the appended modes against the
    kept free basis keeps what the test of all columns keeps, bit for bit;
    and the build without ``free_cs``, which forms no free E, gives the same
    coarse space."""
    sys, dec = channel36
    free = build_free_cs(dec, sys)
    inputs = []
    real = maxwell._independent_columns

    def recording(Z, kept=0):
        inputs.append((Z, kept))
        return real(Z, kept)

    monkeypatch.setattr(maxwell, "_independent_columns", recording)
    cs = build_geneo_complement_cs(dec, sys, tau=10.0, free_cs=free)
    (Z, kept), = inputs
    assert kept == free.n0 and cs.n0 == free.n0 + 2
    tested, whole = real(Z, kept), real(Z)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(tested, part), getattr(whole, part))

    alone = build_geneo_complement_cs(dec, sys, tau=10.0)
    assert (alone.n0, alone.dim_vg, alone.per_subdomain) == (cs.n0, cs.dim_vg, cs.per_subdomain)
    for M, N in ((alone.Z, cs.Z), (alone.E, cs.E)):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(M, part), getattr(N, part))


def test_geneo_complement_build_stays_below_one_dense_coarse_array(channel36):
    """The GenEO-complement build holds no n0 x n0 array (18.3 MB here): the
    free columns are not tested again, so no Gram of the joint basis is
    formed."""
    sys, dec = channel36
    free = build_free_cs(dec, sys)
    tracemalloc.start()
    try:
        build_geneo_complement_cs(dec, sys, tau=10.0, free_cs=free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * free.n0**2


def test_free_cs_alpha_regimes():
    mesh = build_rect_mesh(1.0, 1.0, 20, 20)
    for alpha, expect_strong in ((1e4, False), (1e-4, True)):
        prob = MaxwellProblem(mesh=mesh, alpha=alpha)
        sys = assemble_maxwell(prob)
        dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
        one = OneLevel(dec)
        it_one = _cg(sys, one.apply).iterations
        free = build_free_cs(dec, sys)
        two = TwoLevel(one, free, sys.A)
        it_two = _cg(sys, two.apply).iterations
        if expect_strong:
            assert it_two <= 0.6 * it_one  # near-kernel dominates: V_G decisive
        else:
            assert abs(it_two - it_one) <= max(3, 0.5 * it_one)


def test_geneo_tau_infinite_reduces_to_free():
    _, prob, sys = _system(nx=12)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    free = build_free_cs(dec, sys)
    geneo = build_geneo_complement_cs(dec, sys, tau=np.inf, free_cs=free)
    assert geneo.n0 == free.n0
    assert sum(geneo.per_subdomain) == 0


def test_geneo_homogeneous_few_modes():
    _, prob, sys = _system(nx=16)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    geneo = build_geneo_complement_cs(dec, sys, tau=10.0)
    assert all(c <= 2 for c in geneo.per_subdomain)


def test_geneo_complement_eigensolves_run_in_the_shared_loop(monkeypatch):
    """The GenEO-complement eigensolves go through the subdomain loop of the
    Helmholtz spectral spaces, one per subdomain, under the name that the
    traced benchmark times."""
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    free = build_free_cs(dec, sys)
    sizes = []
    real = schwarz.dense_generalized_eig

    def counting(lhs, rhs, which=None):
        sizes.append(lhs.shape[0])
        return real(lhs, rhs, which=which)

    monkeypatch.setattr(schwarz, "dense_generalized_eig", counting)
    build_geneo_complement_cs(dec, sys, free_cs=free)
    assert sizes == [sd.n_local for sd in dec.subdomains]


def test_geneo_complement_eigensolves_run_on_the_calling_thread(monkeypatch):
    """The GenEO-complement pencils are real: ARPACK runs Python for every
    operator apply, so they are not overlapped, and each is solved on the
    calling thread."""
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    threads = []
    real = schwarz.dense_generalized_eig

    def recording(lhs, rhs, which=None):
        threads.append(threading.get_ident())
        return real(lhs, rhs, which=which)

    monkeypatch.setattr(schwarz, "dense_generalized_eig", recording)
    cs = build_geneo_complement_cs(dec, sys)
    assert threads == [threading.get_ident()] * 4
    assert cs.rejected == [0] * 4


def _geneo_selection(monkeypatch, dec, sys, free, tau, m_max, densify=False):
    """Build the GenEO complement and record, per subdomain, the selected
    eigenvalues and the lifted modes, and the k of every ``eigsh`` call.
    With ``densify`` every pencil is densified before it is solved, so that
    ``dense_generalized_eig`` takes its dense path: the oracle."""
    values, modes, ks = [], [], []
    real_eig, real_cols, real_eigsh = (schwarz.dense_generalized_eig,
                                       maxwell._independent_columns, spla.eigsh)

    def eig(lhs, rhs, which=None):
        if densify:
            lhs, rhs = lhs @ np.eye(lhs.shape[0]), rhs.matrix.toarray()
        pairs = real_eig(lhs, rhs, which=which)
        values.append(np.array([p.value.real for p in pairs]))
        return pairs

    def cols(Z, kept=0):
        modes.append(Z[:, free.n0:].toarray())
        return real_cols(Z, kept)

    def eigsh(A, k, **kwargs):
        ks.append(k)
        return real_eigsh(A, k, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(schwarz, "dense_generalized_eig", eig)
        m.setattr(maxwell, "_independent_columns", cols)
        m.setattr(spla, "eigsh", eigsh)
        cs = build_geneo_complement_cs(dec, sys, tau=tau, m_max=m_max, free_cs=free)
    split = np.cumsum(cs.per_subdomain)[:-1]
    return cs, values, np.split(modes[0], split, axis=1), ks


@pytest.fixture(scope="module")
def grid12():
    """The homogeneous 12-cell case, 2 x 2 subdomains."""
    _, prob, sys = _system(nx=12)
    return sys, build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))


@pytest.mark.parametrize("case,m_max,counts,ks", [
    # 1-2 values above tau per subdomain: one call with k = 4
    ("grid12", 20, [2, 1, 1, 2], [4] * 4),
    # 7 values above tau (k grows 4 -> 8) and 11 > m_max (k capped at 8)
    ("channel36", 8, [7, 8, 8, 7, 7, 8, 8, 7], [4, 8] * 8),
])
def test_arpack_selection_matches_the_dense_oracle(request, monkeypatch, case, m_max,
                                                   counts, ks):
    """The ARPACK solve of the operator pencil selects what the dense solve
    of the densified pencil selects, at tau = 1.5: the same count per
    subdomain, the same eigenvalues to 1e-10 relative, and lifted modes that
    span the same space to 1e-6.  The modes are not closer than that because
    cond(A_j) is about 3e10 on the channel: swapping MGS for Householder QR
    in the dense build alone moves a mode there by 1e-7."""
    sys, dec = request.getfixturevalue(case)
    free = build_free_cs(dec, sys)
    cs, values, modes, calls = _geneo_selection(monkeypatch, dec, sys, free, 1.5, m_max)
    ref, ref_values, ref_modes, _ = _geneo_selection(monkeypatch, dec, sys, free, 1.5,
                                                     m_max, densify=True)
    assert cs.per_subdomain == ref.per_subdomain == counts
    assert calls == ks and cs.flags == [] and cs.n0 == ref.n0
    for lam, ref_lam, V, ref_V in zip(values, ref_values, modes, ref_modes):
        assert np.abs(lam - ref_lam).max(initial=0) <= 1e-10 * np.abs(ref_lam).max(initial=0)
        if V.shape[1]:
            assert _projector_gap(V, ref_V) <= 1e-6


def test_arpack_failure_falls_back_to_the_dense_solve(grid12, monkeypatch):
    """When ARPACK does not converge on one subdomain, that pencil is solved
    densely, its modes are those of the dense solve bit for bit, and its
    index is flagged; the other subdomains keep their ARPACK modes."""
    sys, dec = grid12
    free = build_free_cs(dec, sys)
    cs, _, modes, _ = _geneo_selection(monkeypatch, dec, sys, free, 1.5, 20)
    _, _, dense_modes, _ = _geneo_selection(monkeypatch, dec, sys, free, 1.5, 20,
                                            densify=True)
    real = spla.eigsh
    calls = []

    def failing(A, k, **kwargs):
        calls.append(k)
        if len(calls) == 3:  # the third subdomain's only call
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return real(A, k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", failing)
    fell, _, fell_modes, _ = _geneo_selection(monkeypatch, dec, sys, free, 1.5, 20)
    assert len(calls) == 4 and cs.flags == [] and fell.flags == [2]
    assert fell.per_subdomain == cs.per_subdomain
    assert fell.rejected == [0] * 4
    for j, (V, W) in enumerate(zip(fell_modes, (modes[:2] + dense_modes[2:3] + modes[3:]))):
        assert np.array_equal(V, W), j


def test_geneo_pencils_hold_no_dense_local_matrix(channel36, monkeypatch):
    """The GenEO-complement loop on the benchmark channel holds no
    n_loc x n_loc array at all.  Its traced peak is bounded by what the
    pencil of the largest subdomain needs: four r x r float64 arrays, r the
    local gradient columns (the A-Gram, its scaled copy and the Fortran copy
    that xPSTRF factors in place are alive at once, and one more for slack),
    plus 128 bytes per nonzero of A_j for the sparse local matrices (A_j,
    D A_j D, the Neumann matrix and the copy of U of its SPD test, G, W and
    the transposes kept for the projector, at about 12 bytes per nonzero
    each) and the modes.  Here r = 227 and n_loc = 644: the bound is
    2.05 MB, the peak reads 1.52 MB, and one n_loc x n_loc array alone,
    3.32 MB, exceeds the bound (a dense Cholesky test of the Neumann matrix
    gives a peak of 6.68 MB)."""
    sys, dec = channel36
    free = build_free_cs(dec, sys)
    big = max(dec.subdomains, key=lambda sd: sd.n_local)
    r = np.unique(sys.C[big.dofs].nonzero()[1]).size
    bound = 8 * 4 * r**2 + 128 * big.A_loc.nnz
    assert bound < 8 * big.n_local**2
    peaks = []
    real = maxwell._local_modes

    def traced(*args):
        tracemalloc.start()
        try:
            return real(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(maxwell, "_local_modes", traced)
    cs = build_geneo_complement_cs(dec, sys, tau=10.0, free_cs=free)
    assert cs.per_subdomain == [0, 0, 0, 1, 1, 0, 0, 0]
    assert peaks[0] < bound


def test_non_spd_neumann_matrix_is_shifted_flagged_and_stays_sparse(monkeypatch):
    """A subdomain whose Neumann matrix is not SPD (here its curl-curl part
    alone, singular on the local gradients) is flagged, and its pencil's
    right side is the sparse matrix shifted by 1e-12 times its mean
    diagonal, passed as the factor that ARPACK reuses; the other pencils
    keep their Neumann matrices unshifted.  The flag is the only report of
    the shift: no warning is raised."""
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    free = build_free_cs(dec, sys)
    sd = dec.subdomains[1]
    K = maxwell.assemble_maxwell_subset(replace(prob, eps_r=0.0), sys, sd.elements,
                                        sd.dofs)
    sd.neumann = K
    rhs = []
    real = schwarz.dense_generalized_eig

    def recording(lhs, right, which=None):
        rhs.append(right)
        return real(lhs, right, which=which)

    monkeypatch.setattr(schwarz, "dense_generalized_eig", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs = build_geneo_complement_cs(dec, sys, free_cs=free)
    assert cs.flags == [1]
    assert all(isinstance(B, Factorization) and sp.issparse(B.matrix) for B in rhs)
    shift = 1e-12 * K.diagonal().sum() / sd.n_local
    assert np.array_equal(rhs[1].matrix.toarray(), (K + shift * sp.eye(sd.n_local)).toarray())
    for j in (0, 2, 3):
        assert (rhs[j].matrix != dec.subdomains[j].neumann).nnz == 0


def _check_projector(nx, grid, dropped):
    """The projector of the GenEO-complement pencils as the builder builds it,
    from the sparse A_loc and the raw sparse gradient columns through one
    pivoted Cholesky factor, on every subdomain: it spans all columns but
    ``dropped[j]``, is idempotent and b-self-adjoint (A xi symmetric), and
    ``xi_t`` applies its transpose."""
    _, prob, sys = _system(nx=nx)
    dec = build_edge_decomposition(prob, sys, grid[0] * grid[1], shape="grid", grid=grid)
    C = sys.C.tocsc()
    for sd, drop in zip(dec.subdomains, dropped):
        A_loc = sd.A_loc.real
        Gl = C[sd.dofs, :]
        G = Gl[:, np.unique(Gl.nonzero()[1])]
        apply_xi, apply_xi_t = _bj_projector(G, A_loc)
        eye = np.eye(sd.n_local)
        xi = apply_xi(eye)
        assert np.linalg.matrix_rank(xi) == G.shape[1] - drop
        assert np.abs(xi @ xi - xi).max() <= 1e-12 * max(1.0, np.abs(xi).max())
        bx = A_loc @ xi  # b-self-adjoint: A xi symmetric
        assert np.abs(bx - bx.T).max() <= 1e-10 * np.abs(bx).max()
        assert np.abs(apply_xi_t(eye) - xi.T).max() <= 1e-12 * np.abs(xi).max()


def test_projector_idempotent_and_selfadjoint():
    """``_check_projector`` on the 10-cell case: every subdomain keeps all
    its 35-36 columns, with cond(M0) about 1.5e5."""
    _check_projector(10, (2, 2), [0] * 4)


def test_projector_drops_a_dependent_gradient_column():
    """On a 3 x 3 grid the interior subdomain's 47 columns sum to zero on its
    edges: the pivoted Cholesky keeps 46, and the projector stays exact."""
    _check_projector(12, (3, 3), [0] * 4 + [1] + [0] * 4)


def test_two_level_full_coarse_one_iteration():
    _, prob, sys = _system(nx=8)
    dec = build_edge_decomposition(prob, sys, 2, shape="strips")
    one = OneLevel(dec)
    cs = CoarseSpace(np.eye(sys.n_dofs), sys.A, provenance="full")
    two = TwoLevel(one, cs, sys.A)
    rep = _cg(sys, two.apply, tol=1e-10)
    assert rep.iterations == 1


def test_coarse_projection_idempotent():
    """(HA)^2 = HA on a small, well-conditioned dense instance."""
    _, prob, sys = _system(nx=8, alpha=1.0)
    dec = build_edge_decomposition(prob, sys, 2, shape="strips")
    free = build_free_cs(dec, sys)
    A = sys.A.toarray()
    Z = free.Z.toarray()
    H = Z @ np.linalg.solve(Z.T @ A @ Z, Z.T)
    HA = H @ A
    assert np.abs(HA @ HA - HA).max() <= 1e-12 * np.abs(HA).max()


def test_two_level_symmetric():
    _, prob, sys = _system(nx=6)
    dec = build_edge_decomposition(prob, sys, 2, shape="strips")
    one = OneLevel(dec)
    free = build_free_cs(dec, sys)
    two = TwoLevel(one, free, sys.A)
    n = sys.n_dofs
    M = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        M[:, i] = two.apply(e)
        e[i] = 0.0
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()


def test_two_level_real_for_real_input():
    """TwoLevel with a Maxwell coarse space maps a real vector to float64,
    in both modes."""
    _, prob, sys = _system(nx=10)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    one = OneLevel(dec)
    geneo = build_geneo_complement_cs(dec, sys, tau=10.0)
    v = np.random.default_rng(6).standard_normal(sys.n_dofs)
    for mode in ("hybrid", "additive"):
        assert TwoLevel(one, geneo, sys.A, mode=mode).apply(v).dtype == np.float64


def test_deflation_exactness():
    """M^-1 A acts as the identity on range(Z)."""
    _, prob, sys = _system(nx=10)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    one = OneLevel(dec)
    free = build_free_cs(dec, sys)
    two = TwoLevel(one, free, sys.A)
    rng = np.random.default_rng(4)
    y = free.Z @ rng.standard_normal(free.n0)
    out = two.apply(sys.A @ y)
    assert np.linalg.norm(out - y) <= 1e-10 * np.linalg.norm(y)


# ----------------------------------------------------------- spectra


def test_fsl_exact_preconditioner_unit_spectrum():
    _, prob, sys = _system(nx=8, alpha=1.0)
    assert sys.n_dofs <= 500
    from wavedd.linalg import lu_factorize

    fact = lu_factorize(sys.A)
    chk = fsl_bounds_check(sys.A, lambda v: fact.solve(v))
    assert np.abs(chk.eigenvalues - 1.0).max() <= 1e-12
    assert chk.max_imag <= 1e-12


def test_fsl_one_level_lower_bound_decays_with_n():
    _, prob, sys = _system(nx=10)
    lows = []
    for N in (2, 4, 8):
        dec = build_edge_decomposition(prob, sys, N,
                                       shape="grid" if N > 2 else "strips",
                                       grid={4: (2, 2), 8: (4, 2)}.get(N))
        one = OneLevel(dec)
        chk = fsl_bounds_check(sys.A, one)
        assert chk.max_imag <= 1e-8
        lows.append(chk.c_lower)
    assert lows[0] > lows[1] > lows[2]


def test_fsl_two_level_ratio_contrast_insensitive():
    """Empirical c_R/c_T of the GenEO two-level method grows <= 2x when the
    coefficient contrast goes from 1 to 1e4."""
    mesh = build_rect_mesh(1.0, 1.0, 12, 12)
    ratios = {}
    for contrast in (1.0, 1e4):
        eps = channel_field(mesh, 1.0 / contrast, n_channels=3, width_frac=0.06)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2)
        sys = assemble_maxwell(prob)
        dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
        one = OneLevel(dec)
        geneo = build_geneo_complement_cs(dec, sys, tau=10.0)
        chk = fsl_bounds_check(sys.A, TwoLevel(one, geneo, sys.A))
        assert chk.c_lower > 0
        ratios[contrast] = chk.ratio
    assert ratios[1e4] <= 2.0 * ratios[1.0]


def test_fsl_size_guard():
    _, prob, sys = _system(nx=24)
    with pytest.raises(StructuralError):
        fsl_bounds_check(sys.A, lambda v: v)
