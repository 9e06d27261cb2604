"""Mesh construction and refinement invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedd.errors import StructuralError
from wavedd.mesh import _LOCAL_EDGES, build_rect_mesh, mesh_from_arrays, refine_uniform


def test_unit_cell_counts():
    m = build_rect_mesh(1.0, 1.0, 1, 1, order=1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.n_dofs == 4


def test_2x2_counts():
    m = build_rect_mesh(1.0, 1.0, 2, 2, order=1)
    assert m.n_vertices == 9
    assert m.n_triangles == 8


def test_2x2_p2_dofs_euler():
    m = build_rect_mesh(1.0, 1.0, 2, 2, order=2)
    # edges counted independently: horizontal + vertical + diagonals
    assert m.n_edges == 2 * 3 + 2 * 3 + 4
    assert m.n_dofs == 9 + 16 == 25


def test_positive_orientation():
    m = build_rect_mesh(2.0, 1.0, 3, 4)
    p = m.vertices[m.triangles]
    signed = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    assert np.all(signed > 0)


def test_boundary_edges():
    m = build_rect_mesh(1.0, 1.0, 2, 2)
    assert m.boundary_edges.size == 8


def test_refine_triangle_count():
    m = build_rect_mesh(1.0, 1.0, 1, 1)
    r = refine_uniform(m, 1)
    assert r.n_triangles == 8


def test_refine_nesting():
    m = build_rect_mesh(1.0, 1.0, 3, 2)
    r = refine_uniform(m, 1)
    assert np.allclose(r.vertices[: m.n_vertices], m.vertices)
    assert r.parent is m
    assert r.parent_triangle.shape == (r.n_triangles,)
    assert np.all(np.bincount(r.parent_triangle) == 4)


def test_refine_halves_edges():
    m = build_rect_mesh(1.0, 1.0, 2, 2)
    r = refine_uniform(m, 1)

    def longest_edge(mesh):
        d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1]).max()

    assert longest_edge(r) == pytest.approx(longest_edge(m) / 2, abs=1e-14)


def test_refine_levels_chain():
    """Two levels in one call: the refined mesh points straight at `m`, and
    each triangle at the triangle of `m` that contains it."""
    m = build_rect_mesh(1.0, 1.0, 2, 2)
    r = refine_uniform(m, 2)
    assert r.parent is m
    assert r.n_triangles == 16 * m.n_triangles
    assert np.array_equal(r.parent_triangle, np.repeat(np.arange(m.n_triangles), 16))
    # every child centroid has nonnegative barycentric coordinates in its parent
    p = m.vertices[m.triangles[r.parent_triangle]]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    bary = np.linalg.solve(J, (r.centroids() - p[:, 0])[:, :, None])[:, :, 0]
    assert bary.min() > 0 and bary.sum(axis=1).max() < 1


def test_invalid_args():
    with pytest.raises(StructuralError):
        build_rect_mesh(1, 1, 0, 1)
    with pytest.raises(StructuralError):
        build_rect_mesh(1, 1, 1, 1, order=3)
    m = build_rect_mesh(1, 1, 1, 1)
    with pytest.raises(StructuralError):
        refine_uniform(m, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2]))
def test_counting_invariants(nx, ny, order):
    m = build_rect_mesh(2.0, 1.0, nx, ny, order=order)
    assert m.n_vertices == (nx + 1) * (ny + 1)
    assert m.n_triangles == 2 * nx * ny
    # Euler: V - E + F = 1 for a planar triangulated disc (F = triangles)
    assert m.n_vertices - m.n_edges + m.n_triangles == 1
    expected_dofs = m.n_vertices if order == 1 else m.n_vertices + m.n_edges
    assert m.n_dofs == expected_dofs
    r = refine_uniform(m, 1)
    assert r.n_triangles == 4 * m.n_triangles
    assert r.n_vertices == m.n_vertices + m.n_edges


def _edges_by_rows(triangles):
    """Edges, tri_edges and boundary by row-wise ``np.unique`` of the sorted
    vertex pairs: the reference for the scalar-key deduplication."""
    nt = triangles.shape[0]
    pairs = np.sort(np.concatenate([triangles[:, list(e)] for e in _LOCAL_EDGES]), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(3, nt).T
    counts = np.bincount(tri_edges.ravel(), minlength=edges.shape[0])
    return edges, tri_edges, np.flatnonzero(counts == 1)


@pytest.mark.parametrize("mesh", [
    build_rect_mesh(2.0, 1.0, 7, 5, order=1),
    refine_uniform(build_rect_mesh(1.0, 1.0, 3, 4, order=2), 2),
    mesh_from_arrays([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.4]],
                     [[0, 1, 4], [1, 2, 4], [2, 3, 4], [4, 3, 0]]),
], ids=["p1-rect", "p2-rect-refined", "from-arrays"])
def test_edges_match_row_wise_unique(mesh):
    edges, tri_edges, boundary = _edges_by_rows(mesh.triangles)
    assert np.array_equal(mesh.edges, edges) and mesh.edges.dtype == edges.dtype
    assert np.array_equal(mesh.tri_edges, tri_edges)
    assert np.array_equal(mesh.boundary_edges, boundary)


def test_mesh_from_arrays_rejects_out_of_range_vertex():
    with pytest.raises(StructuralError, match="out of range"):
        mesh_from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]])
