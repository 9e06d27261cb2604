"""Overlapping decompositions: partitioning, overlap rings, partition of
unity, and local Dirichlet/Neumann/Robin matrices.

A subdomain owns a set of elements (nonoverlapping partition) plus overlap
rings; its DOF set is the union of element DOFs, sorted, which defines the
restriction R_j as plain row selection.  D_j holds the inverse-multiplicity
partition of unity weights, so sum_j R_j^T D_j R_j = I.

Two overlap flavours:
  minimum -- add `layers` rings of DOF-sharing elements on the given mesh;
  coarse  -- add rings on a coarse ancestor mesh and descend through the
             refinement map, so the overlap width scales with the coarse h.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError
from .helmholtz import (
    HelmholtzProblem,
    AssembledSystem,
    _gamma_blocks,
    _scatter,
    assemble_helmholtz_subset,
)
from .linalg import Factorization, lu_factorize
from .mesh import Mesh

__all__ = [
    "SubdomainData",
    "Decomposition",
    "partition_geometric",
    "extend_overlap",
    "build_partition_of_unity",
    "assemble_local_matrices",
    "decompose",
]


@dataclass
class SubdomainData:
    index: int
    dofs: np.ndarray              # sorted global DOF ids; defines R_j
    elements: np.ndarray          # overlapping element set
    owned_elements: np.ndarray    # nonoverlapping part
    weights: np.ndarray | None = None         # D_j diagonal
    A_loc: sp.csr_matrix | None = None        # R_j A R_j^T (edge decompositions)
    neumann: sp.csr_matrix | None = None      # local Neumann matrix
    robin: sp.csr_matrix | None = None        # Neumann + i k (interface mass)
    robin_fact: Factorization | None = None
    a_fact: Factorization | None = None       # factorized A_loc (Dirichlet solves)
    interface_mass: sp.csr_matrix | None = None
    interface_dofs: np.ndarray | None = None  # local indices into `dofs`
    k_max: float = 0.0

    @property
    def n_local(self) -> int:
        return self.dofs.size


@dataclass
class Decomposition:
    n_dofs: int
    subdomains: list
    mesh: Mesh | None = None

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)


def partition_geometric(mesh: Mesh, N: int, shape: str = "strips", grid=None) -> np.ndarray:
    """Nonoverlapping element partition by centroid location.

    shape="strips" cuts vertical bands; shape="grid" needs grid=(px, py) with
    px*py = N.  Deterministic, and connected on structured meshes.
    """
    nt = mesh.n_triangles
    if N < 1 or N > nt:
        raise StructuralError(f"need 1 <= N <= #elements, got N={N}, nt={nt}")
    xmin, xmax, ymin, ymax = mesh.bbox()
    c = mesh.centroids()
    if shape == "strips":
        part = np.floor((c[:, 0] - xmin) / (xmax - xmin) * N).astype(np.int64)
        return np.clip(part, 0, N - 1)
    if shape == "grid":
        if grid is None or int(grid[0]) * int(grid[1]) != N:
            raise StructuralError("grid shape needs grid=(px, py) with px*py = N")
        px, py = int(grid[0]), int(grid[1])
        ix = np.clip(np.floor((c[:, 0] - xmin) / (xmax - xmin) * px).astype(np.int64), 0, px - 1)
        iy = np.clip(np.floor((c[:, 1] - ymin) / (ymax - ymin) * py).astype(np.int64), 0, py - 1)
        return ix + px * iy
    raise StructuralError(f"unknown partition shape {shape!r}")


def _vertex_rings(mesh: Mesh, members: np.ndarray, layers: int) -> np.ndarray:
    """Grow an element set by `layers` rings of vertex-sharing neighbours
    (vertex adjacency covers DOF adjacency for both P1 and P2)."""
    tri = mesh.triangles
    current = members.copy()
    for _ in range(layers):
        vmask = np.zeros(mesh.n_vertices, dtype=bool)
        vmask[tri[current].ravel()] = True
        current = vmask[tri].any(axis=1)
    return current


def _ancestor_chain_to(mesh: Mesh, n_coarse_triangles: int):
    """Meshes from `mesh` up to the ancestor with the given triangle count,
    plus the composed fine-element -> ancestor-element map."""
    chain = [mesh]
    while chain[-1].n_triangles != n_coarse_triangles:
        parent = chain[-1].parent
        if parent is None:
            raise StructuralError(f"no ancestor mesh has {n_coarse_triangles} triangles")
        chain.append(parent)
    fine_to_coarse = np.arange(mesh.n_triangles)
    for m in chain[:-1]:
        fine_to_coarse = m.parent_triangle[fine_to_coarse]
    return chain[-1], fine_to_coarse


def extend_overlap(
    partition: np.ndarray,
    mesh: Mesh,
    layers: int = 1,
    mode: str = "minimum",
    element_dofs: np.ndarray | None = None,
    n_dofs: int | None = None,
) -> Decomposition:
    """Build the overlapping decomposition skeleton (no matrices yet).

    For mode="minimum" the partition lives on `mesh` itself.  For
    mode="coarse" it lives on a coarse ancestor of `mesh` (produced by
    refine_uniform); rings are added there and descend to the fine mesh.

    `element_dofs` defaults to the mesh's Lagrange DOF map; pass a custom
    (nt, k) map with -1 for eliminated DOFs to decompose other spaces
    (e.g. edge elements).
    """
    partition = np.asarray(partition)
    if element_dofs is None:
        element_dofs = mesh.element_dofs()
        n_dofs = mesh.n_dofs
    if n_dofs is None:
        raise StructuralError("n_dofs is required with a custom element_dofs map")
    N = int(partition.max()) + 1

    if mode == "minimum":
        if partition.shape[0] != mesh.n_triangles:
            raise StructuralError("partition size does not match the mesh")
        if layers < 1:
            raise StructuralError("minimum overlap needs layers >= 1")
        owned = [np.flatnonzero(partition == j) for j in range(N)]
        overlapped = [
            np.flatnonzero(_vertex_rings(mesh, partition == j, layers)) for j in range(N)
        ]
    elif mode == "coarse":
        coarse, fine_to_coarse = _ancestor_chain_to(mesh, partition.shape[0])
        owned_c = [partition == j for j in range(N)]
        over_c = [_vertex_rings(coarse, m, layers) for m in owned_c]
        owned = [np.flatnonzero(m[fine_to_coarse]) for m in owned_c]
        overlapped = [np.flatnonzero(m[fine_to_coarse]) for m in over_c]
    else:
        raise StructuralError(f"unknown overlap mode {mode!r}")

    subdomains = []
    covered = np.zeros(n_dofs, dtype=bool)
    for j in range(N):
        if owned[j].size == 0:
            raise StructuralError(f"subdomain {j} owns no elements")
        dofs = np.unique(element_dofs[overlapped[j]])
        dofs = dofs[dofs >= 0]
        covered[dofs] = True
        subdomains.append(
            SubdomainData(
                index=j,
                dofs=dofs,
                elements=overlapped[j],
                owned_elements=owned[j],
            )
        )
    if not covered.all():
        raise StructuralError("some DOFs belong to no subdomain")
    return Decomposition(n_dofs, subdomains, mesh=mesh)


def build_partition_of_unity(dec: Decomposition) -> Decomposition:
    """Inverse-multiplicity weights: D_j(dof) = 1/#subdomains containing it."""
    mult = np.zeros(dec.n_dofs, dtype=np.int64)
    for sd in dec.subdomains:
        mult[sd.dofs] += 1
    for sd in dec.subdomains:
        sd.weights = 1.0 / mult[sd.dofs]
    return dec


def decompose(
    mesh: Mesh,
    N: int,
    shape: str = "strips",
    grid=None,
    layers: int = 1,
    mode: str = "minimum",
    element_dofs: np.ndarray | None = None,
    n_dofs: int | None = None,
) -> Decomposition:
    """Partition + overlap + partition of unity in one call.  For
    mode="coarse" the partition is built on the coarsest ancestor of `mesh`,
    the root of its refinement chain."""
    target = mesh
    if mode == "coarse":
        if mesh.parent is None:
            raise StructuralError("coarse overlap needs a refined mesh")
        *_, target = mesh.ancestors()
    part = partition_geometric(target, N, shape=shape, grid=grid)
    dec = extend_overlap(part, mesh, layers=layers, mode=mode,
                         element_dofs=element_dofs, n_dofs=n_dofs)
    return build_partition_of_unity(dec)


def _interface_edges(mesh: Mesh, elements: np.ndarray) -> np.ndarray:
    """Edges on the subdomain boundary that are not on the global boundary."""
    counts = np.bincount(mesh.tri_edges[elements].ravel(), minlength=mesh.n_edges)
    once = np.flatnonzero(counts == 1)
    return np.setdiff1d(once, mesh.boundary_edges, assume_unique=True)


def assemble_local_matrices(
    dec: Decomposition,
    problem: HelmholtzProblem,
    system: AssembledSystem,
    factorize: bool = True,
) -> Decomposition:
    """Complete each subdomain: the Neumann matrix assembled from local
    elements only, the Robin matrix B_j = A~_j + i k (interface mass),
    interface data and k_j.  The interface k is sampled at each edge
    midpoint."""
    mesh = dec.mesh
    cent = mesh.centroids()
    for sd in dec.subdomains:
        if sd.elements.size == 0:
            raise StructuralError(f"subdomain {sd.index} is empty")
        sd.neumann = assemble_helmholtz_subset(
            problem, sd.elements, sd.dofs,
            dirichlet_dofs=system.dirichlet_dofs,
        )
        k_elems = problem.omega / problem.model(
            cent[sd.elements, 0], cent[sd.elements, 1]
        )
        sd.k_max = float(k_elems.max()) if problem.omega > 0 else 0.0

        iface = _interface_edges(mesh, sd.elements)
        nloc = sd.dofs.size
        if iface.size:
            gdofs, weighted, plain = _gamma_blocks(problem, iface)
            gdofs = np.searchsorted(sd.dofs, gdofs)
            Mg = _scatter(gdofs, plain, nloc)
            Mk = _scatter(gdofs, weighted, nloc)
            sd.interface_dofs = np.unique(gdofs)
        else:
            Mg = sp.csr_matrix((nloc, nloc))
            Mk = sp.csr_matrix((nloc, nloc))
            sd.interface_dofs = np.empty(0, dtype=np.int64)
        sd.interface_mass = Mg
        sd.robin = sd.neumann + 1j * Mk
        if factorize:
            sd.robin_fact = lu_factorize(sd.robin, ordering="MMD_AT_PLUS_A")
    return dec


def pou_identity_deviation(dec: Decomposition) -> float:
    """max | sum_j R_j^T D_j R_j - I | (should be <= 1e-14)."""
    acc = np.zeros(dec.n_dofs)
    for sd in dec.subdomains:
        acc[sd.dofs] += sd.weights
    return float(np.abs(acc - 1.0).max())
