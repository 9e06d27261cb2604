"""Wave speed fields c(x, y) in km/s: layers (a constant is one layer) or a
raster grid.

The raster file format (used for Marmousi-style models) is a one-line ASCII
header ``nx ny xmin xmax ymin ymax unit`` followed by nx*ny little-endian
float32 values, row-major from the top-left corner of the grid.
"""
from __future__ import annotations

import numpy as np

from .errors import StructuralError

__all__ = ["VelocityModel", "load_raster_model", "save_raster_model"]


def _check_speeds(values, what: str) -> None:
    """Raise StructuralError unless every speed in ``values`` is finite and
    positive: ``<= 0`` is False for NaN, and assembly would fail later with
    a misleading symmetry error.  Maxwell's mu_r and eps_r obey the same
    rule."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise StructuralError(f"{what} must be finite (NaN or inf found)")
    if np.any(values <= 0):
        raise StructuralError(f"{what} must be positive")


class VelocityModel:
    """Positive wave speed field, evaluable at any (x, y), in one of two
    representations: layers (``speeds``, bottom layer first, and one fewer
    ``interfaces``), of which a constant speed is the one-layer case, or a
    raster ``grid`` over ``extent``.  ``grid is None`` tells them apart.
    """

    def __init__(self, *, speeds=None, interfaces=None, grid=None, extent=None):
        self.speeds = None if speeds is None else np.asarray(speeds, dtype=float)
        self.interfaces = None if interfaces is None else [tuple(i) for i in interfaces]
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self.extent = None if extent is None else tuple(float(e) for e in extent)
        if self.grid is None:
            if self.speeds is None or self.interfaces is None:
                raise StructuralError("layered model needs speeds and interfaces")
            if len(self.speeds) != len(self.interfaces) + 1:
                raise StructuralError("need one more layer speed than interfaces")
            _check_speeds(self.speeds, "layer speeds")
        else:
            if self.extent is None:
                raise StructuralError("raster model needs grid and extent")
            _check_speeds(self.grid, "raster speeds")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "VelocityModel":
        """One layer of speed c."""
        return cls(speeds=[float(c)], interfaces=[])

    @classmethod
    def layered_wedge(cls, speeds, interfaces) -> "VelocityModel":
        """Dipping layers: interface i is the line y = a_i + b_i * x; the layer
        index of a point is the number of interfaces below it (bottom layer
        first in ``speeds``)."""
        return cls(speeds=speeds, interfaces=interfaces)

    @classmethod
    def raster(cls, grid, extent) -> "VelocityModel":
        """Raster grid (ny, nx), row 0 at ymin; extent (xmin, xmax, ymin, ymax)."""
        return cls(grid=grid, extent=extent)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.grid is not None:
            return self._raster_eval(x, y)
        idx = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        for a, b in self.interfaces:
            idx += (y > a + b * x)
        return self.speeds[idx]

    def _raster_eval(self, x, y):
        grid = self.grid
        ny, nx = grid.shape
        xmin, xmax, ymin, ymax = self.extent
        # clamp to the grid, then bilinear: nearest-value behaviour outside
        flat = np.zeros(np.broadcast(x, y).shape)
        fx = np.clip((x - xmin) / (xmax - xmin) * (nx - 1) if nx > 1 else flat, 0, nx - 1)
        fy = np.clip((y - ymin) / (ymax - ymin) * (ny - 1) if ny > 1 else flat, 0, ny - 1)
        fx = np.asarray(fx, dtype=float)
        fy = np.asarray(fy, dtype=float)
        i0 = np.floor(fx).astype(np.int64)
        j0 = np.floor(fy).astype(np.int64)
        i0 = np.minimum(i0, nx - 2) if nx > 1 else i0
        j0 = np.minimum(j0, ny - 2) if ny > 1 else j0
        tx = fx - i0
        ty = fy - j0
        i1 = np.minimum(i0 + 1, nx - 1)
        j1 = np.minimum(j0 + 1, ny - 1)
        v00 = grid[j0, i0]
        v10 = grid[j0, i1]
        v01 = grid[j1, i0]
        v11 = grid[j1, i1]
        return (1 - ty) * ((1 - tx) * v00 + tx * v10) + ty * ((1 - tx) * v01 + tx * v11)

    def min_speed(self) -> float:
        return float((self.speeds if self.grid is None else self.grid).min())


def load_raster_model(path, width: float | None = None,
                      height: float | None = None) -> VelocityModel:
    """Read a raster velocity file; optional width/height remap the extent to
    [0, width] x [0, height] (useful when benchmarks rescale the model)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 7:
            raise StructuralError(f"bad raster header in {path!r}: {header}")
        try:
            nx, ny = int(header[0]), int(header[1])
            xmin, xmax, ymin, ymax = (float(v) for v in header[2:6])
        except ValueError as exc:
            raise StructuralError(f"bad raster header in {path!r}") from exc
        unit = header[6]
        if nx < 1 or ny < 1 or xmax <= xmin or ymax <= ymin:
            raise StructuralError("raster header values inconsistent")
        data = np.fromfile(fh, dtype="<f4", count=nx * ny)
    if data.size != nx * ny:
        raise StructuralError("raster payload truncated")
    if unit == "km/s":
        scale = 1.0
    elif unit == "m/s":
        scale = 1e-3
    else:
        raise StructuralError(f"unknown raster unit {unit!r}")
    grid = (data.astype(np.float64) * scale).reshape(ny, nx)[::-1]  # to ascending y
    _check_speeds(grid, f"raster speeds in {path!r}")
    extent = (xmin, xmax, ymin, ymax)
    if width is not None and height is not None:
        extent = (0.0, float(width), 0.0, float(height))
    return VelocityModel.raster(grid, extent)


def save_raster_model(path, grid, extent, unit: str = "km/s") -> None:
    """Write the raster format; ``grid`` is (ny, nx) with row 0 at ymin."""
    grid = np.asarray(grid, dtype=np.float64)
    ny, nx = grid.shape
    xmin, xmax, ymin, ymax = extent
    with open(path, "wb") as fh:
        fh.write(f"{nx} {ny} {xmin} {xmax} {ymin} {ymax} {unit}\n".encode("ascii"))
        fh.write(grid[::-1].astype("<f4").tobytes())  # row-major from top-left
