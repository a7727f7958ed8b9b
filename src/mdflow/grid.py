"""Polar grid on the unit disk, dense fields, and basic calculus.

The reference domain is the open unit disk.  Cells are centered at
r_i = (i + 1/2) / n_r so neither the origin nor the boundary carries a
node; the coordinate singularity at r = 0 never enters a stencil and
boundary data lives on the cell edge r = 1.  Angular derivatives are
taken spectrally (the angular direction is periodic and smooth fields
are band-limited on it), radial derivatives with second-order finite
differences.  Stencils that need a node inside the origin use the
angle-shift rule: a value at (-r, theta) is the value at (r, theta+pi).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class Grid:
    """Cell-centered polar grid of the unit disk."""

    def __init__(self, n_r: int, n_theta: int):
        if n_r < 4:
            raise ValueError("n_r must be at least 4")
        if n_theta < 4 or n_theta % 2 != 0:
            raise ValueError("n_theta must be even and at least 4")
        self.n_r = n_r
        self.n_theta = n_theta
        self.dr = 1.0 / n_r
        self.dtheta = 2.0 * np.pi / n_theta
        self.radii = (np.arange(n_r) + 0.5) * self.dr          # cell centers
        self.edge_radii = np.arange(n_r + 1) * self.dr         # cell edges, 0..1
        self.angles = np.arange(n_theta) * self.dtheta          # cell centers in theta
        # cartesian coordinates of the nodes, shape (n_r, n_theta)
        self.y1 = self.radii[:, None] * np.cos(self.angles)[None, :]
        self.y2 = self.radii[:, None] * np.sin(self.angles)[None, :]
        self.cell_area = self.radii[:, None] * self.dr * self.dtheta * np.ones(n_theta)[None, :]
        # rfft wavenumbers for spectral theta-derivatives
        self.modes = np.arange(n_theta // 2 + 1)

    def __eq__(self, other):
        return isinstance(other, Grid) and (self.n_r, self.n_theta) == (other.n_r, other.n_theta)

    def __hash__(self):
        return hash((self.n_r, self.n_theta))

    def __repr__(self):
        return f"Grid(n_r={self.n_r}, n_theta={self.n_theta})"


@dataclass
class ScalarField:
    """Dense scalar samples on the nodes of a polar grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_theta})"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError("scalar field contains NaN or Inf")


@dataclass
class VectorField:
    """Cartesian component pair sampled on the nodes of a polar grid."""

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        shape = (self.grid.n_r, self.grid.n_theta)
        if self.u1.shape != shape or self.u2.shape != shape:
            raise ValueError("component shapes do not match grid")


# ---------------------------------------------------------------------------
# derivative building blocks
# ---------------------------------------------------------------------------

def pushforward(M: np.ndarray, u1, u2):
    """Components of the 2x2 product M (u1, u2): (M00 u1 + M01 u2, M10 u1 + M11 u2).

    Every change of frame of the affine map is one of these: T u pushes a
    physical velocity forward, T^T grad_y f is the physical gradient.
    """
    return M[0, 0] * u1 + M[0, 1] * u2, M[1, 0] * u1 + M[1, 1] * u2


def theta_derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta along the last axis, for any leading axes; exact on
    resolved harmonics."""
    return spectral_theta_derivative(grid, np.fft.rfft(values, axis=-1))


def spectral_theta_derivative(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """theta_derivative of the values whose rfft along the last axis is
    spec; spec is overwritten."""
    spec *= 1j * grid.modes
    spec[..., -1] = 0.0  # odd derivative of the Nyquist mode is not representable
    return np.fft.irfft(spec, n=grid.n_theta, axis=-1)


# Second-order one-sided d/dr at the outer ring, times 2 dr: the weights of
# rings n-1, n-2 and n-3.
ONE_SIDED = (3.0, -4.0, 1.0)


def radial_derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second-order d/dr along the second-to-last axis, for any leading axes:
    centered inside, angle-shift ghost across the origin, one-sided at the
    outer ring."""
    two_dr = 2.0 * grid.dr
    out = np.empty_like(values)
    inner = out[..., 1:-1, :]
    np.subtract(values[..., 2:, :], values[..., :-2, :], out=inner)
    inner /= two_dr
    ghost = np.roll(values[..., 0, :], grid.n_theta // 2, axis=-1)  # value at (-r_0, theta)
    out[..., 0, :] = (values[..., 1, :] - ghost) / two_dr
    w0, w1, w2 = ONE_SIDED
    out[..., -1, :] = (w0 * values[..., -1, :] + w1 * values[..., -2, :]
                       + w2 * values[..., -3, :]) / two_dr
    return out


def gradient(f: ScalarField) -> VectorField:
    """Cartesian gradient from polar derivatives."""
    g = f.grid
    fr = radial_derivative(g, f.values)
    ft = theta_derivative(g, f.values) / g.radii[:, None]
    cos = np.cos(g.angles)[None, :]
    sin = np.sin(g.angles)[None, :]
    return VectorField(g, cos * fr - sin * ft, sin * fr + cos * ft)


def boundary_extrapolate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Quadratic extrapolation of nodal data to the boundary r = 1.

    Exact for radial profiles of degree <= 2; used for boundary traces of
    interior fields (no boundary node exists on the cell-centered grid).
    """
    # Lagrange weights for nodes at 1 - 5h/2, 1 - 3h/2, 1 - h/2 evaluated at 1
    return (15.0 * values[-1] - 10.0 * values[-2] + 3.0 * values[-3]) / 8.0


def integrate(f: ScalarField, p):
    """L^p norm over the disk with cell-area weights; p = inf gives max |f|.

    The unit-Jacobian pullback makes this equal to the physical-domain norm.
    A sequence of exponents gives {p: norm} from one pass over |f|.  The
    powers 1.5, 2 and 4 are built from |f| by products and a square root:
    libm pow is many times slower, above all where the result underflows,
    as on the far tail of a compactly supported vorticity.
    """
    many = np.iterable(p)
    ps = tuple(p) if many else (p,)
    if any(q != np.inf and q < 1 for q in ps):
        raise ValueError("integrate requires p >= 1 or p = inf")
    a = np.abs(f.values)
    w = f.grid.cell_area
    norms = {q: float(np.max(a)) if q == np.inf
             else float(np.sum(_power(a, q) * w) ** (1.0 / q)) for q in ps}
    return norms if many else norms[p]


def _power(a: np.ndarray, q: float) -> np.ndarray:
    if q == 1.5:
        return a * np.sqrt(a)
    if q == 2.0:
        return a * a
    if q == 4.0:
        a2 = a * a
        return a2 * a2
    return a ** q


# ---------------------------------------------------------------------------
# snapshot format: `MDFLOW v1 scalar n_r n_theta t` + little-endian float64
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = "MDFLOW v1 scalar"


def write_snapshot(path, f: ScalarField, t: float):
    """Write the documented binary snapshot: one ASCII header line
    `MDFLOW v1 scalar n_r n_theta t`, then row-major (radius-major)
    little-endian 64-bit floats."""
    header = f"{SNAPSHOT_MAGIC} {f.grid.n_r} {f.grid.n_theta} {t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[ScalarField, float]:
    """Read a snapshot written by write_snapshot; returns (field, t)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if " ".join(parts[:3]) != SNAPSHOT_MAGIC or len(parts) != 6:
            raise ValueError(f"not an MDFLOW v1 scalar snapshot: {header!r}")
        n_r, n_theta = int(parts[3]), int(parts[4])
        t = float(parts[5])
        if n_r <= 0 or n_theta <= 0:
            raise ValueError(f"snapshot dimensions must be positive: {n_r} x {n_theta}")
        # check the size the header implies before reading (and allocating) it
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * n_r * n_theta:
            raise ValueError(f"snapshot payload is {payload} bytes, header implies "
                             f"{n_r} x {n_theta} float64 values")
        data = np.frombuffer(fh.read(payload), dtype="<f8")
    grid = Grid(n_r, n_theta)
    return ScalarField(grid, data.reshape(n_r, n_theta).copy()), t
