"""Structured 2D triangular meshes with P1/P2 Lagrange degrees of freedom.

Coordinates are in km.  A uniform refinement keeps the parent's vertices with
their original indices (nested meshes) and records the child -> parent
triangle map, which the coarse-overlap decomposition and the grid coarse
space rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

__all__ = ["Mesh", "build_rect_mesh", "mesh_from_arrays", "refine_uniform"]

# local edge k of a triangle is opposite local vertex k
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3), positively oriented
    order: int                  # 1 or 2
    edges: np.ndarray           # (ne, 2), endpoints sorted low -> high
    tri_edges: np.ndarray       # (nt, 3), edge id opposite each local vertex
    boundary_edges: np.ndarray  # edge ids with a single incident triangle
    boundary_tags: np.ndarray   # side tag per boundary edge (0 b, 1 r, 2 t, 3 l, -1 other)
    parent: "Mesh | None" = None
    parent_triangle: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_vertices if self.order == 1 else self.n_vertices + self.n_edges

    def dof_coords(self) -> np.ndarray:
        if self.order == 1:
            return self.vertices
        mids = 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])
        return np.vstack([self.vertices, mids])

    def element_dofs(self) -> np.ndarray:
        """Global DOF ids per element: (nt, 3) for P1, (nt, 6) for P2."""
        if self.order == 1:
            return self.triangles
        return np.hstack([self.triangles, self.n_vertices + self.tri_edges])

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def h_max(self) -> float:
        return float(self.edge_lengths().max())

    def bbox(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return lo[0], hi[0], lo[1], hi[1]

    def ancestors(self):
        """Chain of parents, nearest first."""
        m = self.parent
        while m is not None:
            yield m
            m = m.parent


def _build_edges(triangles: np.ndarray, n_vertices: int):
    """Edges (endpoints low -> high, in lexicographic order), the edge of
    each local edge of every triangle, and the boundary edges.  An edge
    (a, b) is deduplicated by its scalar key a * n_vertices + b, which
    orders edges as the rows (a, b) do."""
    nt = triangles.shape[0]
    pairs = np.concatenate([triangles[:, list(e)] for e in _LOCAL_EDGES])
    pairs = np.sort(pairs, axis=1)
    keys, inverse = np.unique(pairs[:, 0] * n_vertices + pairs[:, 1], return_inverse=True)
    edges = np.column_stack(np.divmod(keys, n_vertices))
    tri_edges = inverse.reshape(3, nt).T.copy()
    counts = np.bincount(tri_edges.ravel(), minlength=edges.shape[0])
    boundary = np.flatnonzero(counts == 1)
    return edges, tri_edges, boundary


def _tag_boundary(vertices, edges, boundary, tol=1e-12):
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    mids = 0.5 * (vertices[edges[boundary, 0]] + vertices[edges[boundary, 1]])
    tags = np.full(boundary.shape[0], -1, dtype=np.int64)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    eps = tol * span
    tags[np.abs(mids[:, 1] - lo[1]) <= eps] = 0
    tags[np.abs(mids[:, 0] - hi[0]) <= eps] = 1
    tags[np.abs(mids[:, 1] - hi[1]) <= eps] = 2
    tags[np.abs(mids[:, 0] - lo[0]) <= eps] = 3
    return tags


def _orient_positive(vertices, triangles):
    p = vertices[triangles]
    sign = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    if np.any(sign == 0):
        raise StructuralError("degenerate (zero-area) triangle")
    flip = sign < 0
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip, 1], triangles[flip, 2] = triangles[flip, 2], triangles[flip, 1]
    return triangles


def _finish(vertices, triangles, order, parent=None, parent_triangle=None) -> Mesh:
    triangles = _orient_positive(vertices, triangles)
    edges, tri_edges, boundary = _build_edges(triangles, vertices.shape[0])
    tags = _tag_boundary(vertices, edges, boundary)
    return Mesh(vertices, triangles, order, edges, tri_edges, boundary, tags,
                parent=parent, parent_triangle=parent_triangle)


def mesh_from_arrays(vertices, triangles, order: int = 1) -> Mesh:
    """Mesh from raw vertex/triangle arrays; triangles are re-oriented to
    positive signed area."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    if order not in (1, 2):
        raise StructuralError("order must be 1 or 2")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= vertices.shape[0]):
        raise StructuralError("triangle vertex index out of range")
    return _finish(vertices, triangles, order)


def build_rect_mesh(width: float, height: float, nx: int, ny: int, order: int = 1) -> Mesh:
    """Structured triangulation of [0, width] x [0, height]: nx-by-ny cells,
    each split into two triangles along the same diagonal direction."""
    if nx < 1 or ny < 1:
        raise StructuralError("nx, ny must be >= 1")
    if order not in (1, 2):
        raise StructuralError("order must be 1 or 2")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return _finish(vertices, np.asarray(tris, dtype=np.int64), order)


def refine_uniform(mesh: Mesh, levels: int = 1) -> Mesh:
    """Split each triangle into 4 congruent children, `levels` times.

    Parent vertices keep their indices in every child mesh, so the refined
    mesh nests the parent exactly; h halves per level.
    """
    if levels < 1:
        raise StructuralError("levels must be >= 1")
    current = mesh
    for _ in range(levels):
        nv = current.n_vertices
        mids = 0.5 * (
            current.vertices[current.edges[:, 0]] + current.vertices[current.edges[:, 1]]
        )
        vertices = np.vstack([current.vertices, mids])
        t = current.triangles
        m = nv + current.tri_edges  # midpoint vertex ids, m[:, k] opposite vertex k
        children = np.empty((current.n_triangles, 4, 3), dtype=np.int64)
        children[:, 0] = np.column_stack([t[:, 0], m[:, 2], m[:, 1]])
        children[:, 1] = np.column_stack([t[:, 1], m[:, 0], m[:, 2]])
        children[:, 2] = np.column_stack([t[:, 2], m[:, 1], m[:, 0]])
        children[:, 3] = np.column_stack([m[:, 0], m[:, 1], m[:, 2]])
        parent_triangle = np.repeat(np.arange(current.n_triangles), 4)
        current = _finish(
            vertices,
            children.reshape(-1, 3),
            current.order,
            parent=current,
            parent_triangle=parent_triangle,
        )
    return current
