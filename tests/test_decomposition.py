"""Partitioning, overlap, partition of unity, and local matrices."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wavedd.decomposition import (
    assemble_local_matrices,
    decompose,
    extend_overlap,
    partition_geometric,
    pou_identity_deviation,
)
from wavedd.errors import StructuralError
from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz, \
    assemble_helmholtz_subset
from wavedd.maxwell import MaxwellProblem, assemble_maxwell, build_edge_decomposition, \
    channel_field
from wavedd.linalg import is_symmetric
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.velocity import VelocityModel


def _problem(mesh, omega=2 * np.pi * 2, c=1.0):
    return HelmholtzProblem(
        mesh=mesh,
        model=VelocityModel.constant(c),
        omega=omega,
        source=PointSource(0.5, 0.5),
    )


# ------------------------------------------------------------ partitioning


def test_single_part():
    mesh = build_rect_mesh(1, 1, 3, 3)
    part = partition_geometric(mesh, 1)
    assert np.all(part == 0)


def test_two_strips_equal_split():
    mesh = build_rect_mesh(1, 1, 4, 4)
    part = partition_geometric(mesh, 2, shape="strips")
    assert np.count_nonzero(part == 0) == 16
    assert np.count_nonzero(part == 1) == 16


def test_grid_2x2_split():
    mesh = build_rect_mesh(1, 1, 4, 4)
    part = partition_geometric(mesh, 4, shape="grid", grid=(2, 2))
    counts = np.bincount(part)
    assert np.all(counts == 8)


def test_partition_errors():
    mesh = build_rect_mesh(1, 1, 2, 2)
    with pytest.raises(StructuralError):
        partition_geometric(mesh, 100)
    with pytest.raises(StructuralError):
        partition_geometric(mesh, 4, shape="grid", grid=(3, 2))
    with pytest.raises(StructuralError):
        partition_geometric(mesh, 2, shape="rings")


# ------------------------------------------------------------ overlap


def test_overlap_single_domain_adds_nothing():
    mesh = build_rect_mesh(1, 1, 4, 4)
    part = partition_geometric(mesh, 1)
    dec = extend_overlap(part, mesh, layers=1)
    assert dec.subdomains[0].elements.size == mesh.n_triangles


def test_minimum_overlap_one_ring_width():
    """Two strips on a structured mesh: the overlap extends one element row
    beyond the interface on each side."""
    nx = 8
    mesh = build_rect_mesh(1.0, 1.0, nx, nx)
    h = 1.0 / nx
    part = partition_geometric(mesh, 2, shape="strips")
    dec = extend_overlap(part, mesh, layers=1)
    c = mesh.centroids()
    left = dec.subdomains[0]
    # owned: centroids < 0.5; with one ring the set reaches at most 0.5 + h
    assert c[left.elements, 0].max() < 0.5 + h
    assert c[left.elements, 0].max() > 0.5
    right = dec.subdomains[1]
    assert c[right.elements, 0].min() > 0.5 - h
    assert c[right.elements, 0].min() < 0.5


def test_coarse_overlap_width_scales_with_refinement():
    """One coarse ring refined twice is 4 fine element widths wide."""
    coarse = build_rect_mesh(1.0, 1.0, 4, 4)
    fine = refine_uniform(coarse, 2)
    h_fine = 1.0 / 16
    part = partition_geometric(coarse, 2, shape="strips")
    dec = extend_overlap(part, fine, layers=1, mode="coarse")
    c = fine.centroids()
    left = dec.subdomains[0]
    reach = c[left.elements, 0].max() - 0.5
    assert reach > 3 * h_fine
    assert reach < 4 * h_fine + 1e-12


def test_coarse_decomposition_partitions_the_coarsest_ancestor():
    """``decompose`` in coarse mode partitions the root of the refinement
    chain, however many times the mesh was refined; a mesh with no parent
    has no coarse overlap."""
    root = build_rect_mesh(1.0, 1.0, 4, 4)
    fine = refine_uniform(root, 2)
    dec = decompose(fine, 2, shape="strips", mode="coarse")
    ref = extend_overlap(partition_geometric(root, 2, shape="strips"), fine, mode="coarse")
    for sd, expected in zip(dec.subdomains, ref.subdomains, strict=True):
        assert np.array_equal(sd.elements, expected.elements)
        assert np.array_equal(sd.owned_elements, expected.owned_elements)
        assert np.array_equal(sd.dofs, expected.dofs)
    with pytest.raises(StructuralError, match="needs a refined mesh"):
        decompose(root, 2, shape="strips", mode="coarse")


def test_coarse_overlap_needs_ancestor():
    mesh = build_rect_mesh(1, 1, 4, 4)
    part = np.zeros(5, dtype=int)  # matches no ancestor
    with pytest.raises(StructuralError):
        extend_overlap(part, mesh, mode="coarse")


# ------------------------------------------------------------ partition of unity


def test_pou_single_domain_identity():
    mesh = build_rect_mesh(1, 1, 3, 3)
    dec = decompose(mesh, 1)
    assert np.all(dec.subdomains[0].weights == 1.0)


def test_pou_shared_dof_half():
    mesh = build_rect_mesh(1, 1, 4, 1)
    dec = decompose(mesh, 2, shape="strips")
    mult = np.zeros(dec.n_dofs, dtype=int)
    for sd in dec.subdomains:
        mult[sd.dofs] += 1
    shared = np.flatnonzero(mult == 2)
    assert shared.size > 0
    for sd in dec.subdomains:
        loc = np.isin(sd.dofs, shared)
        assert np.all(sd.weights[loc] == 0.5)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 9),
    st.sampled_from(["strips", "grid"]),
    st.sampled_from(["minimum", "coarse"]),
    st.integers(1, 2),
)
def test_pou_identity_randomized(N, shape, mode, layers):
    grid = None
    if shape == "grid":
        # pick a divisor pair
        for px in range(int(np.sqrt(N)), 0, -1):
            if N % px == 0:
                grid = (px, N // px)
                break
    base = build_rect_mesh(1.0, 1.0, 10, 6, order=2)  # >= N columns for strips
    mesh = refine_uniform(base, 1) if mode == "coarse" else base
    dec = decompose(mesh, N, shape=shape, grid=grid, layers=layers, mode=mode)
    assert pou_identity_deviation(dec) <= 1e-14


def test_restriction_round_trip():
    """R_j R_j^T = identity on the local space."""
    mesh = build_rect_mesh(1, 1, 5, 5, order=2)
    dec = decompose(mesh, 4, shape="grid", grid=(2, 2))
    rng = np.random.default_rng(0)
    for sd in dec.subdomains:
        vloc = rng.standard_normal(sd.n_local)
        v = np.zeros(dec.n_dofs)
        v[sd.dofs] = vloc  # R_j^T
        assert np.array_equal(v[sd.dofs], vloc)  # R_j


# ------------------------------------------------------------ local matrices


def _decomposed_system(nx=8, N=4, omega=2 * np.pi * 2, order=2, bc="impedance"):
    mesh = build_rect_mesh(1.0, 1.0, nx, nx, order=order)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.constant(1.0), omega=omega,
        source=PointSource(0.5, 0.5), outer_bc=bc,
    )
    sys = assemble_helmholtz(prob)
    if N > 1:
        dec = decompose(mesh, N, shape="grid", grid=(2, N // 2))
    else:
        dec = decompose(mesh, 1)
    assemble_local_matrices(dec, prob, sys)
    return mesh, prob, sys, dec


def test_dirichlet_submatrix_exact():
    """The edge decomposition, the one producer of A_loc, keeps the Dirichlet
    submatrix R_j A R_j^T exactly."""
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    prob = MaxwellProblem(mesh=mesh, eps_r=channel_field(mesh, 1e2), alpha=1e-2)
    sys = assemble_maxwell(prob)
    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    A = sys.A.toarray()
    for sd in dec.subdomains:
        sub = A[np.ix_(sd.dofs, sd.dofs)]
        assert np.array_equal(sd.A_loc.toarray(), sub)


def _canonical_csr(M) -> bool:
    return sp.issparse(M) and M.format == "csr" and M.has_canonical_format


@pytest.mark.parametrize("bc", ["impedance", "dirichlet"])
def test_solvers_get_canonical_scipy_csr(bc):
    """Every assembled and local matrix is scipy CSR with sorted, unique
    column indices in each row, the order that the sparse products and
    factors of the solvers are pinned to."""
    mesh = build_rect_mesh(1.0, 1.0, 6, 6, order=2)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.1)]),
        omega=2 * np.pi * 2, source=PointSource(0.5, 0.5), outer_bc=bc)
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 3, shape="strips")
    assemble_local_matrices(dec, prob, sys, factorize=False)
    assert all(_canonical_csr(M) for M in
               (sys.A, sys.L, sys.weighted_mass, sys.impedance_mass))
    assert all(_canonical_csr(sd.neumann) and _canonical_csr(sd.robin)
               for sd in dec.subdomains)

    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    prob = MaxwellProblem(mesh=mesh, eps_r=channel_field(mesh, 1e2), alpha=1e-2)
    mx = assemble_maxwell(prob)
    dec = build_edge_decomposition(prob, mx, 4, shape="grid", grid=(2, 2), factorize=False)
    assert all(_canonical_csr(M) for M in (mx.K, mx.Mw, mx.A))
    assert all(_canonical_csr(sd.neumann) and _canonical_csr(sd.A_loc)
               for sd in dec.subdomains)


def test_neumann_symmetric():
    _, _, _, dec = _decomposed_system()
    for sd in dec.subdomains:
        assert is_symmetric(sd.neumann)


def test_single_domain_robin_equals_global():
    _, _, sys, dec = _decomposed_system(N=1)
    assert np.abs(dec.subdomains[0].robin.toarray() - sys.A.toarray()).max() < 1e-14


def test_robin_differs_only_on_interface_rows():
    _, _, _, dec = _decomposed_system()
    for sd in dec.subdomains:
        diff = np.abs(sd.robin.toarray() - sd.neumann.toarray())
        nz_rows = np.flatnonzero(diff.max(axis=1) > 0)
        assert np.all(np.isin(nz_rows, sd.interface_dofs))


def test_poisson_limit_interior_neumann_singular():
    """omega -> 0: interior subdomain Neumann matrices have the constant
    kernel (smallest singular value < 1e-10)."""
    mesh = build_rect_mesh(1.0, 1.0, 9, 3, order=1)
    prob = HelmholtzProblem(
        mesh=mesh, model=VelocityModel.constant(1.0), omega=0.0,
        source=PointSource(0.5, 0.5), outer_bc="impedance",
    )
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 3, shape="strips")
    assemble_local_matrices(dec, prob, sys, factorize=False)
    mid = dec.subdomains[1]  # no global boundary... all strips touch top/bottom
    # with impedance at omega=0 the boundary term vanishes -> pure Neumann
    Nmat = mid.neumann.toarray()
    sv = np.linalg.svd(Nmat, compute_uv=False)
    assert sv[-1] < 1e-10
    ones = np.ones(mid.n_local)
    assert np.abs(Nmat @ ones).max() < 1e-12


def test_kj_max_wavenumber():
    mesh = build_rect_mesh(1.0, 1.0, 8, 8)
    model = VelocityModel.layered_wedge([1.0, 2.0], [(0.5, 0.0)])
    omega = 2 * np.pi * 3
    prob = HelmholtzProblem(mesh=mesh, model=model, omega=omega,
                            source=PointSource(0.5, 0.5))
    sys = assemble_helmholtz(prob)
    dec = decompose(mesh, 2, shape="strips")
    assemble_local_matrices(dec, prob, sys, factorize=False)
    for sd in dec.subdomains:
        assert sd.k_max == pytest.approx(omega / 1.0)  # both strips touch the slow layer


def test_disjoint_neumann_reassembly():
    """Neumann matrices assembled from the owned (disjoint) element sets sum
    back to the global matrix."""
    mesh, prob, sys, dec = _decomposed_system(nx=6, N=4)
    n = dec.n_dofs
    acc = np.zeros((n, n), dtype=complex)
    for sd in dec.subdomains:
        dofs = np.unique(mesh.element_dofs()[sd.owned_elements])
        local = assemble_helmholtz_subset(prob, sd.owned_elements, dofs)
        acc[np.ix_(dofs, dofs)] += local.toarray()
    assert np.abs(acc - sys.A.toarray()).max() < 1e-12


def test_robin_invertible_and_factorized():
    _, _, _, dec = _decomposed_system(omega=2 * np.pi * 3)
    for sd in dec.subdomains:
        assert sd.robin_fact is not None
        b = np.ones(sd.n_local, dtype=complex)
        x = sd.robin_fact.solve(b)
        assert np.linalg.norm(sd.robin @ x - b) / np.linalg.norm(b) < 1e-10


def test_empty_subdomain_rejected():
    mesh = build_rect_mesh(1, 1, 2, 2)
    part = np.zeros(mesh.n_triangles, dtype=int)
    part[0] = 1  # subdomain 1 owns a single element, 0 the rest: fine
    dec = extend_overlap(part, mesh)
    assert dec.n_subdomains == 2
