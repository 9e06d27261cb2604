"""Overlapping decompositions: partitioning, overlap rings, partition of
unity, and the local Neumann matrices and Robin factors of ORAS.

A subdomain owns a set of elements (nonoverlapping partition) plus overlap
rings; its DOF set is the union of element DOFs, sorted, which defines the
restriction R_j as plain row selection.  D_j holds the inverse-multiplicity
partition of unity weights, so sum_j R_j^T D_j R_j = I.

Two overlap flavours:
  minimum -- add `layers` rings of DOF-sharing elements on the given mesh;
  coarse  -- add rings on the mesh the given one was refined from and
             descend through the refinement map, so the overlap width
             scales with the coarse h.
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
    "partition_mesh",
    "assemble_local_matrices",
    "decompose",
]


@dataclass
class SubdomainData:
    index: int
    dofs: np.ndarray              # sorted global DOF ids; defines R_j
    elements: np.ndarray          # overlapping element set
    weights: np.ndarray | None = None         # D_j diagonal
    A_loc: sp.csr_matrix | None = None        # R_j A R_j^T (edge decompositions)
    neumann: sp.csr_matrix | None = None      # local Neumann matrix
    factor: Factorization | None = None       # F_j: Robin (Helmholtz) or A_loc (Maxwell)
    interface_mass: sp.csr_matrix | None = None  # on `interface_dofs` only
    interface_dofs: np.ndarray | None = None  # local indices into `dofs`
    k_max: float = 0.0

    @property
    def n_local(self) -> int:
        return self.dofs.size


@dataclass
class Decomposition:
    n_dofs: int
    subdomains: list
    restricted: bool = False  # W_j = D_j in the one-level sum (ORAS), else W_j = I

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


def partition_mesh(mesh: Mesh, layers: int, mode: str) -> Mesh:
    """The mesh that ``decompose`` partitions for the given overlap: `mesh`
    itself for mode="minimum", which needs layers >= 1, and for mode="coarse"
    the mesh that `mesh` was refined from.  Any other overlap is a
    StructuralError."""
    if mode == "minimum":
        if layers < 1:
            raise StructuralError("minimum overlap needs layers >= 1")
        return mesh
    if mode == "coarse":
        if mesh.parent is None:
            raise StructuralError("coarse overlap needs a refined mesh")
        return mesh.parent
    raise StructuralError(f"unknown overlap mode {mode!r}")


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
    """The overlapping decomposition of `mesh` into N subdomains with its
    partition of unity, D_j(dof) = 1/#subdomains containing it (no matrices
    yet).

    ``partition_geometric`` cuts ``partition_mesh(mesh, layers, mode)`` into
    N parts, and each part grows by `layers` rings there; for mode="coarse"
    the rings descend to `mesh` through `mesh.parent_triangle`.

    `element_dofs` defaults to the mesh's Lagrange DOF map; pass a custom
    (nt, k) map with -1 for eliminated DOFs, and its `n_dofs`, to decompose
    other spaces (e.g. edge elements).
    """
    target = partition_mesh(mesh, layers, mode)
    partition = partition_geometric(target, N, shape=shape, grid=grid)
    if element_dofs is None:
        element_dofs, n_dofs = mesh.element_dofs(), mesh.n_dofs
    if n_dofs is None:
        raise StructuralError("n_dofs is required with a custom element_dofs map")

    subdomains = []
    mult = np.zeros(n_dofs, dtype=np.int64)
    for j in range(N):
        owned = partition == j
        if not owned.any():
            raise StructuralError(f"subdomain {j} owns no elements")
        rings = _vertex_rings(target, owned, layers)
        if mode == "coarse":
            rings = rings[mesh.parent_triangle]
        elements = np.flatnonzero(rings)
        dofs = np.unique(element_dofs[elements])
        dofs = dofs[dofs >= 0]
        mult[dofs] += 1
        subdomains.append(SubdomainData(index=j, dofs=dofs, elements=elements))
    if not mult.all():
        raise StructuralError("some DOFs belong to no subdomain")
    for sd in subdomains:
        sd.weights = 1.0 / mult[sd.dofs]
    return Decomposition(n_dofs, subdomains)


def _interface_edges(mesh: Mesh, elements: np.ndarray) -> np.ndarray:
    """Edges on the subdomain boundary that are not on the global boundary."""
    counts = np.bincount(mesh.tri_edges[elements].ravel(), minlength=mesh.n_edges)
    once = np.flatnonzero(counts == 1)
    return np.setdiff1d(once, mesh.boundary_edges, assume_unique=True)


def _robin_matrix(problem: HelmholtzProblem, sd: SubdomainData):
    """The Robin matrix B_j = A~_j + i k M_Gamma of a subdomain with its Neumann
    matrix A~_j, M_Gamma the mass on its interface edges and k sampled at each
    edge midpoint; and its sorted local interface DOFs and M_Gamma on them."""
    nloc = sd.dofs.size
    iface = _interface_edges(problem.mesh, sd.elements)
    if not iface.size:
        return (sd.neumann + 1j * sp.csr_matrix((nloc, nloc)), np.empty(0, dtype=np.int64),
                sp.csr_matrix((0, 0)))
    gdofs, weighted, plain = _gamma_blocks(problem, iface)
    gdofs = np.searchsorted(sd.dofs, gdofs)
    gam = np.unique(gdofs)
    return (sd.neumann + 1j * _scatter(gdofs, weighted, nloc), gam,
            _scatter(np.searchsorted(gam, gdofs), plain, gam.size))


def assemble_local_matrices(
    dec: Decomposition,
    problem: HelmholtzProblem,
    system: AssembledSystem,
) -> Decomposition:
    """Complete each subdomain for ORAS: the Neumann matrix assembled from
    local elements only, the factor of the Robin matrix of ``_robin_matrix``,
    the interface DOFs and mass, and k_j; the one-level sum is weighted by
    the partition of unity, W_j = D_j (``dec.restricted``)."""
    cent = problem.mesh.centroids()
    for sd in dec.subdomains:
        if sd.elements.size == 0:
            raise StructuralError(f"subdomain {sd.index} is empty")
        sd.neumann = assemble_helmholtz_subset(
            problem, sd.elements, sd.dofs,
            dirichlet_dofs=system.dirichlet_dofs,
        )
        k_elems = problem.wavenumber(cent[sd.elements, 0], cent[sd.elements, 1])
        sd.k_max = float(k_elems.max()) if problem.omega > 0 else 0.0
        robin, sd.interface_dofs, sd.interface_mass = _robin_matrix(problem, sd)
        sd.factor = lu_factorize(robin, ordering="MMD_AT_PLUS_A")
    dec.restricted = True
    return dec


def pou_identity_deviation(dec: Decomposition) -> float:
    """max | sum_j R_j^T D_j R_j - I | (should be <= 1e-14)."""
    acc = np.zeros(dec.n_dofs)
    for sd in dec.subdomains:
        acc[sd.dofs] += sd.weights
    return float(np.abs(acc - 1.0).max())
