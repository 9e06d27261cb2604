"""Velocity field evaluation and the raster file format."""

import numpy as np
import pytest

from wavedd.errors import StructuralError
from wavedd.velocity import VelocityModel, load_raster_model, save_raster_model


def test_constant_everywhere():
    m = VelocityModel.raster(np.full((2, 2), 1.5), (0, 1, 0, 1))
    xs = np.array([0.0, 0.3, 0.99, -5.0, 7.0])
    assert np.allclose(m(xs, xs), 1.5)


def test_bilinear_midpoint():
    m = VelocityModel.raster(np.array([[1.0, 3.0]]), (0, 1, 0, 1))
    assert m(0.5, 0.2) == pytest.approx(2.0)


def test_single_cell_raster_assembles_like_constant():
    from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz
    from wavedd.mesh import build_rect_mesh

    mesh = build_rect_mesh(1.0, 1.0, 4, 4, order=1)
    raster = VelocityModel.raster(np.array([[1.5]]), (0, 1, 0, 1))
    assert raster(np.zeros(3), np.zeros(3)).shape == (3,)
    A = [assemble_helmholtz(HelmholtzProblem(mesh=mesh, model=m, omega=2 * np.pi,
                                             source=PointSource(0.5, 0.5))).A.to_dense()
         for m in (raster, VelocityModel.constant(1.5))]
    assert np.array_equal(A[0], A[1])


def test_nearest_outside():
    m = VelocityModel.raster(np.array([[1.0, 3.0]]), (0, 1, 0, 1))
    assert m(-2.0, 0.0) == pytest.approx(1.0)
    assert m(9.0, 0.0) == pytest.approx(3.0)


def test_wedge_layers():
    m = VelocityModel.layered_wedge([1.0, 2.0, 5.0], [(0.3, 0.1), (0.7, -0.1)])
    assert m(0.0, 0.1) == pytest.approx(1.0)
    assert m(0.0, 0.5) == pytest.approx(2.0)
    assert m(0.0, 0.9) == pytest.approx(5.0)
    # dipping interface: the same height can fall in different layers
    assert m(0.0, 0.32) == pytest.approx(2.0)
    assert m(0.5, 0.32) == pytest.approx(1.0)


def test_wedge_validation():
    with pytest.raises(StructuralError):
        VelocityModel.layered_wedge([1.0], [(0.5, 0.0)])
    with pytest.raises(StructuralError):
        VelocityModel.layered_wedge([1.0, -2.0], [(0.5, 0.0)])


def test_raster_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    grid = 1.5 + rng.random((5, 7))
    path = tmp_path / "model.vel"
    save_raster_model(path, grid, (0, 9.2, 0, 3.0))
    m = load_raster_model(path)
    assert np.allclose(m.grid, grid, atol=1e-6)  # float32 payload
    assert m.extent == (0, 9.2, 0, 3.0)
    assert m.min_speed() == pytest.approx(grid.min(), abs=1e-6)
    assert m.max_speed() == pytest.approx(grid.max(), abs=1e-6)


def test_raster_min_max_scan(tmp_path):
    """Model min/max must match an independent scan of the file payload."""
    rng = np.random.default_rng(1)
    grid = 1.5 + 4.0 * rng.random((11, 23))
    path = tmp_path / "scan.vel"
    save_raster_model(path, grid, (0, 9.2, 0, 3.0))
    with open(path, "rb") as fh:
        fh.readline()
        raw = np.fromfile(fh, dtype="<f4")
    m = load_raster_model(path)
    assert m.min_speed() == pytest.approx(raw.min())
    assert m.max_speed() == pytest.approx(raw.max())


def test_raster_extent_override(tmp_path):
    grid = np.full((2, 2), 2.0)
    path = tmp_path / "ovr.vel"
    save_raster_model(path, grid, (0, 100, 0, 50))
    m = load_raster_model(path, width=1.0, height=1.0)
    assert m.extent == (0.0, 1.0, 0.0, 1.0)


def test_raster_unit_conversion(tmp_path):
    grid = np.full((2, 2), 1500.0)
    path = tmp_path / "ms.vel"
    save_raster_model(path, grid, (0, 1, 0, 1), unit="m/s")
    m = load_raster_model(path)
    assert m(0.5, 0.5) == pytest.approx(1.5)


def test_raster_bad_header(tmp_path):
    path = tmp_path / "bad.vel"
    path.write_bytes(b"2 2 0 1 0\n" + np.zeros(4, dtype="<f4").tobytes())
    with pytest.raises(StructuralError):
        load_raster_model(path)


def test_raster_nonpositive(tmp_path):
    path = tmp_path / "neg.vel"
    grid = np.array([[1.0, -1.0]])
    with open(path, "wb") as fh:
        fh.write(b"2 1 0 1 0 1 km/s\n")
        fh.write(grid.astype("<f4").tobytes())
    with pytest.raises(StructuralError):
        load_raster_model(path)


def test_raster_orientation(tmp_path):
    """Row-major from top-left: first payload row is the ymax row."""
    path = tmp_path / "orient.vel"
    with open(path, "wb") as fh:
        fh.write(b"1 2 0 1 0 1 km/s\n")
        fh.write(np.array([9.0, 1.0], dtype="<f4").tobytes())
    m = load_raster_model(path)
    assert m(0.5, 0.0) == pytest.approx(1.0)
    assert m(0.5, 1.0) == pytest.approx(9.0)


def test_rho_cp_provenance():
    m = VelocityModel.from_rho_cp(1.0, 1.5)
    assert m(0, 0) == pytest.approx(1.5)
    assert m.rho == 1.0 and m.cP == 1.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_speeds_rejected(tmp_path, bad):
    """NaN and +-inf speeds are rejected with an error that names the cause,
    by every constructor and by the raster reader: ``c <= 0`` is False for
    NaN and for +inf, so a check on the sign alone lets them through."""
    with pytest.raises(StructuralError, match="finite"):
        VelocityModel.constant(bad)
    with pytest.raises(StructuralError, match="finite"):
        VelocityModel.layered_wedge([1.0, bad], [(0.5, 0.0)])
    with pytest.raises(StructuralError, match="finite"):
        VelocityModel.raster(np.array([[1.5, bad]]), (0, 1, 0, 1))
    path = tmp_path / "bad.vel"
    with open(path, "wb") as fh:
        fh.write(b"2 1 0 1 0 1 km/s\n")
        fh.write(np.array([1.5, bad], dtype="<f4").tobytes())
    with pytest.raises(StructuralError, match="finite"):
        load_raster_model(path)
