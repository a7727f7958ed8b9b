"""Elliptic solvers for the pulled-back operator q^{jk} d_j d_k on the disk.

The operator is written in flux form: the radial part is a conservative
finite-volume difference of the conormal flux (q grad f).e_r through cell
edges, the angular part is the spectral theta-derivative of the nodal flux
component (q grad f).e_theta.  A constant q couples angular modes m and
m +- 2 only, so the one implementation of this stencil is a sparse matrix
on a field's packed angular spectrum (a Spectrum), built per grid in
closed form with the homogeneous Dirichlet closure at r = 1;
apply_operator on nodal values packs, multiplies and unpacks.  Boundary
values enter once, as a closed-form lift on the last cell ring that moves
to the right side before any solve.

For q = c*I an angular transform decouples the operator into one radial
tridiagonal system per mode (the fast path), stacked into one matrix,
symmetric positive definite once its rows are scaled by grid-only
weights: its dpttrf factor is cached per (grid, coefficients).
Anisotropic solves run BiCGstab (GMRES fallback) on the spectrum,
preconditioned by the cached factor at the mean coefficient, with no FFT
inside the loop.

The zero-length inner edge of the first cell ring carries no flux, so no
origin condition is ever needed.  Cross-derivative face values use a
three-ring quadratic interpolation, which keeps the whole operator exact
on quadratic polynomials of the Cartesian coordinates.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import ONE_SIDED, Grid, ScalarField, theta_derivative


class EllipticError(RuntimeError):
    """Iterative elliptic solve failed to reach the requested residual."""


def coerce_metric(q) -> np.ndarray:
    """Check that q is a symmetric positive-definite 2x2 array and return
    its symmetric part as floats."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2, 2):
        raise ValueError("coefficient must be a 2x2 matrix")
    if abs(q[0, 1] - q[1, 0]) > 1e-12 * (1.0 + abs(q[0, 1])):
        raise ValueError("coefficient matrix must be symmetric")
    q = 0.5 * (q + q.T)
    # Sylvester's criterion: exact in sign where an eigensolver's scaling
    # can flush the small eigenvalue of a unit-determinant q to zero
    if not (q[0, 0] > 0 and q[0, 0] * q[1, 1] - q[0, 1] ** 2 > 0):
        raise ValueError(f"coefficient matrix must be positive definite, got {q.tolist()}")
    return q


def _isotropic_part(q: np.ndarray):
    """Return (is_isotropic, mean coefficient)."""
    c = 0.5 * (q[0, 0] + q[1, 1])
    dev = max(abs(q[0, 0] - c), abs(q[1, 1] - c), abs(q[0, 1]))
    return dev <= 1e-13 * abs(c), c


def _profile(grid: Grid, data) -> np.ndarray:
    """Boundary profile as an array over the angular nodes."""
    angles = grid.angles
    if data is None:
        return np.zeros_like(angles)
    if callable(data):
        return np.asarray(data(angles), dtype=float) * np.ones_like(angles)
    data = np.asarray(data, dtype=float)
    if data.ndim == 0:
        return float(data) * np.ones_like(angles)
    if data.shape != angles.shape:
        raise ValueError("angular profile has wrong length")
    return data


class Spectrum(NamedTuple):
    """A real field on `grid` as its packed angular spectrum: the real
    vector of parts (real, imaginary), then modes 0 .. N/2, then radii, of
    Z_m = w_m V_m, where V is the orthonormal rfft of each ring and
    w_m = sqrt(2) on modes 1 .. N/2-1, so packing is an isometry.  The
    imaginary parts of modes 0 and N/2 are zero.  apply_operator and
    solve_modes act on it with no transform."""
    grid: Grid
    values: np.ndarray


def _pack(values: np.ndarray) -> np.ndarray:
    """Spectrum values of nodal values."""
    spec = np.fft.rfft(values, axis=1, norm="ortho").T
    spec[1:-1] *= np.sqrt(2.0)
    return np.concatenate([spec.real.ravel(), spec.imag.ravel()])


def _unpack(x: np.ndarray, n_theta: int) -> np.ndarray:
    """Nodal values of Spectrum values."""
    spec = (x[:x.size // 2] + 1j * x[x.size // 2:]).reshape(n_theta // 2 + 1, -1)
    spec[1:-1] /= np.sqrt(2.0)
    return np.fft.irfft(spec.T, n=n_theta, axis=1, norm="ortho")


# ---------------------------------------------------------------------------
# fast path: per-mode radial tridiagonal systems
# ---------------------------------------------------------------------------

# Quadratic one-sided closures at the boundary edge r = 1 (cell centers at
# 1 - dr/2, 1 - 3dr/2, ...).  d_r f(1) = CB*f(1) + C1*f[n-1] + C2*f[n-2],
# with the coefficients below divided by dr; exact on radial quadratics.
_CB = 8.0 / 3.0
_C1 = -3.0
_C2 = 1.0 / 3.0

# Quadratic interpolation of the nodal d_theta f to the face between rings
# k-1 and k: the weights of rings k-1, k and k+1.  The last interior face
# uses it mirrored.
_FACE = (0.375, 0.75, -0.125)


@functools.lru_cache(maxsize=2)
def _mode_factor(grid: Grid, lap_coeff: float, alpha: float):
    """(weights, d, e): the row weights and the dpttrf factor of the radial
    systems of every angular mode, so dpttrs(d, e, weights * b) solves them
    for right sides b.

    The per-mode tridiagonal systems are stacked mode-major into one
    block-separated tridiagonal matrix of order n_modes * n_r, with zero
    couplings between blocks, so one LAPACK call solves every mode.  Row i
    times r_i is symmetric (r_i lo_i = r_{i-1} up_{i-1}); the Dirichlet
    closure's last row takes r_{n-1} e/(e + _C2) instead, e its inner edge
    radius.  These weights, signed as alpha - lap_coeff, make the Poisson
    and Helmholtz blocks positive definite, so dpttrf factors them.  A
    block it rejects (alpha and lap_coeff of one sign, which no solve here
    builds) raises EllipticError.

    Grids compare by (n_r, n_theta).  Every preconditioner call of one
    Krylov solve shares a key, and an isotropic step uses two (Poisson and
    Helmholtz), so two entries give every hit a larger cache would.  Each
    holds about 0.27 MB at 128x256, and a time-dependent metric, even the
    rotating ellipse's whose mean coefficient moves in the last bits,
    makes new keys every step.
    """
    dr, r = grid.dr, grid.radii
    lo = grid.edge_radii[:-1] / (r * dr * dr)   # lo[0] = 0: no inner-edge flux
    up = grid.edge_radii[1:] / (r * dr * dr)
    up[-1] = -_C1 / (r[-1] * dr * dr)           # the quadratic closure at r = 1
    weights = np.copysign(r, alpha - lap_coeff)
    weights[-1] *= grid.edge_radii[-2] / (grid.edge_radii[-2] + _C2)
    # rows are (mode, radius); the diagonal varies with mode through m^2/r^2
    diag = alpha - lap_coeff * (lo + up) - lap_coeff * (grid.modes[:, None] / r) ** 2
    sup = lap_coeff * up                        # sup[i] couples radius i to i+1
    sup[-1] = 0.0
    n_modes = grid.modes.size
    d, e = (diag * weights).ravel(), np.tile(weights * sup, n_modes)[:-1]
    d, e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise EllipticError(f"radial system is not positive definite "
                            f"(lap_coeff={lap_coeff:.6g}, alpha={alpha:.6g})")
    for a in (weights, d, e):
        a.flags.writeable = False
    return weights, d, e


def solve_modes(
    grid: Grid,
    rhs_values,
    *,
    lap_coeff: float,
    alpha: float = 0.0,
):
    """Solve (alpha + lap_coeff * Lap) f = rhs with f = 0 on r = 1 by
    angular transform plus one radial tridiagonal system per mode.

    The radial systems of all modes form one block-separated tridiagonal
    matrix, factored once per (grid, lap_coeff, alpha) and cached (see
    _mode_factor); a call is an rfft, the row scaling of the right side,
    one dpttrs back-substitution with the real and imaginary parts as two
    right-hand sides, and an irfft.  A Spectrum right side skips both
    transforms and gives a Spectrum.  Nonzero boundary values go to the
    right side first (see _solve).
    """
    n_r, n_theta = grid.n_r, grid.n_theta
    weights, d, e = _mode_factor(grid, lap_coeff, alpha)

    spectral = isinstance(rhs_values, Spectrum)
    if spectral:
        parts = rhs_values.values.copy().reshape(2, -1, n_r)
    else:
        rhs_hat = np.fft.rfft(rhs_values, axis=1)  # (n_r, n_modes)
        parts = np.stack([rhs_hat.real.T, rhs_hat.imag.T])   # mode-major
    parts *= weights
    x, _ = dpttrs(d, e, parts.reshape(2, -1).T, overwrite_b=True)
    x = x.T.reshape(parts.shape)
    if spectral:
        return Spectrum(grid, x.ravel())
    # the solution spectrum overwrites the right-hand side's
    rhs_hat.real = x[0].T
    rhs_hat.imag = x[1].T
    return np.fft.irfft(rhs_hat, n=n_theta, axis=1)


# ---------------------------------------------------------------------------
# the flux-form operator on the packed spectrum, and the anisotropic solves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=2)
class _ModeOperator:
    """The flux-form stencil with the homogeneous Dirichlet closure on the
    complex spectrum Z of a Spectrum, one per grid: a complex-linear
    CSR matrix and a conjugate-linear one, whose entries are base values
    times the coefficient of q each scales with.

    Against the polar frame q has a_rr = c + Re(g e^{2i theta}),
    a_tt = c - Re(g e^{2i theta}) and a_rt = Re(i g e^{2i theta}), with
    c = (q00 + q11)/2 and g = (q00 - q11)/2 - i q01.  So Z_m takes Z_m with
    weight c, Z_{m-2} with g/2 and Z_{m+2} with conj(g)/2, each through a
    radial band (offsets -2..2) of the stencil's pieces: the conormal flux
    difference with its outer closure, the face-interpolated and centred
    theta-fluxes with their spectral d_theta (Nyquist dropped), the
    pi-shifted origin ghost and the a_tt term, whose c part is -c m^2 on
    every mode, the Nyquist one too, as in the fast path.  A source index
    outside 0..N/2 folds back conjugated (V_{-k} = V_{N-k} = conj V_k),
    into the conjugate-linear matrix.
    """

    def __init__(self, grid: Grid):
        from scipy import sparse     # only the anisotropic solves build a matrix

        n, nt, half, dr, r = grid.n_r, grid.n_theta, grid.n_theta // 2, grid.dr, grid.radii
        m = np.arange(half + 1)
        w = np.where((m == 0) | (m == half), 1.0, np.sqrt(2.0))

        def freq(k):                               # d_theta multiplier / i
            k = (k + half) % nt - half
            return np.where(np.abs(k) == half, 0, k)

        sigma = np.array([1, 0, -1])[None, :]      # sources m - 2, m, m + 2
        j = m[:, None] - 2 * sigma
        folded = (j < 0) | (j > half)
        jf = np.where(j < 0, -j, np.where(j > half, nt - j, j))
        fm, fj = freq(m)[:, None], freq(j)
        parity = 1 - 2 * (j % 2)

        lo = grid.edge_radii[:-1] / (r * dr * dr)
        up = grid.edge_radii[1:] / (r * dr * dr)
        bands = np.zeros((5, n, 5))                # columns: offsets -2..2
        bands[0, 1:, 1] = lo[1:]
        bands[0, :, 2] = -(lo + up)
        bands[0, :-1, 3] = up[:-1]
        # the outer edge carries the quadratic Dirichlet closure's flux
        bands[0, -1, 2] = -lo[-1]
        bands[0, -1, 1] += _C2 / (r[-1] * dr * dr)
        bands[0, -1, 2] += _C1 / (r[-1] * dr * dr)
        face = np.zeros((n + 1, 5))                # face k's weights by offset from ring k-1
        face[1:-1, 2:] = _FACE
        face[-2, 1:4] = _FACE[::-1]
        bands[1] = face[1:]
        bands[1, :, :-1] -= face[:-1, 1:]
        bands[1] /= (r * dr)[:, None]
        bands[2, 1:-1, 1] = -1.0                   # centred d_r
        bands[2, :-1, 3] = 1.0
        bands[2, -1, 2::-1] = ONE_SIDED
        bands[2] /= (2.0 * dr * r)[:, None]
        bands[3, 0, 2] = -1.0 / (2.0 * dr * r[0])  # ghost at (r_0, theta + pi)
        bands[4, :, 2] = 1.0 / r ** 2
        coef = np.stack([np.ones_like(fj), -sigma * fj, -sigma * fm, -sigma * fm * parity,
                         np.where(sigma == 0, -m[:, None] ** 2, fm * fj)])
        vals = np.einsum("tms,tio->miso", coef, bands)  # (mode, radius, side, offset)
        vals *= (w[:, None] / w[jf])[:, None, :, None]
        i_o = (np.arange(n)[:, None] + np.arange(-2, 3))[None, :, None, :]
        col = (jf[:, None, :, None] * n + i_o).astype(np.int32)
        side = np.broadcast_to(np.arange(3, dtype=np.int8)[:, None], vals.shape[2:])
        parts = []
        for part in (~folded, folded):
            keep = (i_o >= 0) & (i_o < n) & part[:, None, :, None] & (vals != 0.0)
            indptr = np.concatenate([[0], np.cumsum(keep.reshape(-1, 15).sum(axis=1))])
            data = np.zeros(indptr[-1], dtype=complex)
            mat = sparse.csr_matrix((data, col[keep], indptr.astype(np.int32)),
                                    shape=(m.size * n,) * 2)
            parts.append((mat, vals[keep], np.broadcast_to(side, keep.shape)[keep]))
        self._parts = parts                        # (matrix, base, side) per matrix
        self._key = None

    def at(self, c: float, g: complex):
        """The matrix pair at q's coefficients c and g, refreshed in place
        once per new q."""
        if self._key != (c, g):
            weights = np.array([0.5 * g, c, 0.5 * np.conj(g)])
            for mat, base, side in self._parts:
                np.multiply(base, weights[side], out=mat.data)
            self._key = (c, g)
        return self._parts[0][0], self._parts[1][0]

def apply_operator(q, f):
    """Apply q^{jk} d_j d_k with f = 0 on r = 1 to a Spectrum, or to a
    ScalarField through its Spectrum."""
    g = f.grid
    q = coerce_metric(q)
    c, d, e = 0.5 * (q[0, 0] + q[1, 1]), 0.5 * (q[0, 0] - q[1, 1]), q[0, 1]
    lin, conj = _ModeOperator(g).at(c, complex(d, -e))
    spectral = isinstance(f, Spectrum)
    x = f.values if spectral else _pack(f.values)
    size = x.size // 2
    z = np.empty(size, dtype=complex)
    z.real, z.imag = x[:size], x[size:]
    w = lin @ z
    w += conj @ z.conj()
    y = np.concatenate([w.real, w.imag])
    y[size:size + g.n_r] = y[-g.n_r:] = 0.0          # Im of modes 0 and N/2
    return Spectrum(g, y) if spectral else ScalarField(g, _unpack(y, g.n_theta))


def _boundary_lift(q: np.ndarray, grid: Grid, data) -> np.ndarray:
    """What the boundary values f(1, theta) = data add to L_q f, on the last
    cell ring, the only one whose stencil reads them: the conormal flux
    through the unit outer edge over the cell's r dr, which is the quadratic
    closure's a_rr part plus a_rt times its spectral d_theta."""
    b = _profile(grid, data)
    to_ring = grid.edge_radii[-1] / (grid.radii[-1] * grid.dr)
    c, d, e = 0.5 * (q[0, 0] + q[1, 1]), 0.5 * (q[0, 0] - q[1, 1]), q[0, 1]
    cos2, sin2 = np.cos(2.0 * grid.angles), np.sin(2.0 * grid.angles)
    a_rr, a_rt = c + d * cos2 + e * sin2, e * cos2 - d * sin2
    return to_ring * (a_rr * _CB * b / grid.dr + a_rt * theta_derivative(grid, b))


class _SolveReport(NamedTuple):
    """Operator applications, final true residual, GMRES fallback used."""
    applications: int
    residual: float
    fallback: bool


def _solve(q, rhs: ScalarField, *, alpha=0.0, scale=1.0, data=None,
           x0=None, tol: float, maxiter: int, what: str):
    """Solve (alpha + scale * L_q) f = rhs with f = data on r = 1; returns
    (values, _SolveReport).

    The data's lift moves to the right side first, so both paths below
    solve with homogeneous data.  An isotropic q takes the fast path.
    Otherwise BiCGstab (GMRES as the stagnation fallback) runs on the
    Spectrum, left-preconditioned by the fast path at the mean coefficient,
    to a true preconditioned residual of tol, from the initial guess x0: a
    ScalarField, or a zero-argument callable returning one that is called
    only here, so a guess that costs array work is built for Krylov solves
    alone.  Each application is one apply_operator and one solve_modes on
    a Spectrum, with no FFT; the imaginary parts of modes 0 and N/2 are
    identity rows.  The cross-derivative interpolation makes the operator
    nonsymmetric (no CG), and its m^2/r^2 entries near the origin put 1e-10
    out of reach unpreconditioned.
    """
    q = coerce_metric(q)
    g = rhs.grid
    b = rhs.values
    if data is not None:
        b = b.copy()
        b[-1] -= scale * _boundary_lift(q, g, data)
    iso, c = _isotropic_part(q)
    if iso:
        vals = solve_modes(g, b, lap_coeff=scale * c, alpha=alpha)
        return vals, _SolveReport(0, 0.0, False)
    from scipy.sparse.linalg import LinearOperator, bicgstab, gmres   # Krylov path only

    n, size = g.n_r, (g.n_theta // 2 + 1) * g.n_r
    applications = 0

    def precondition(y):
        return solve_modes(g, Spectrum(g, y), lap_coeff=scale * c, alpha=alpha).values

    def matvec(x):
        nonlocal applications
        applications += 1
        y = apply_operator(q, Spectrum(g, x)).values
        y *= scale
        if alpha:
            y += alpha * x
        y = precondition(y)
        y[size:size + n] = x[size:size + n]
        y[-n:] = x[-n:]
        return y

    b_hat = precondition(_pack(b))
    norm_b = float(np.linalg.norm(b_hat))
    if norm_b == 0.0:
        return np.zeros_like(b), _SolveReport(0, 0.0, False)
    op = LinearOperator((b_hat.size,) * 2, matvec=matvec, dtype=float)

    def true_res(x):
        return float(np.linalg.norm(b_hat - matvec(x))) / norm_b

    if callable(x0):
        x0 = x0()
    start = None if x0 is None else _pack(x0.values)
    x, _ = bicgstab(op, b_hat, x0=start, rtol=0.2 * tol, atol=0.0, maxiter=maxiter)
    res, fallback = true_res(x), False
    if res > tol:
        x, _ = gmres(op, b_hat, x0=x, rtol=0.2 * tol, atol=0.0,
                     restart=50, maxiter=max(1, maxiter // 10))
        res, fallback = true_res(x), True
    if res > tol:
        raise EllipticError(
            f"{what}: iterative solve stalled at relative residual {res:.3e} "
            f"(target {tol:.1e}, {maxiter} iterations)"
        )
    return _unpack(x, g.n_theta), _SolveReport(applications, res, fallback)


def solve_dirichlet(
    q,
    rhs: ScalarField,
    boundary=None,
    *,
    tol: float = 1e-10,
    maxiter: int = 500,
    x0: ScalarField | Callable[[], ScalarField] | None = None,
) -> ScalarField:
    """Solve q^{jk} d_j d_k f = rhs with f = boundary on r = 1.

    x0 is the Krylov initial guess (zero when None) or a zero-argument
    callable that builds it; an isotropic q never reads it."""
    vals, _ = _solve(q, rhs, data=boundary, x0=x0, tol=tol, maxiter=maxiter,
                     what="solve_dirichlet")
    return ScalarField(rhs.grid, vals)


def solve_helmholtz(
    q,
    rhs: ScalarField,
    shift: float,
    *,
    tol: float = 1e-10,
    maxiter: int = 500,
    x0: ScalarField | Callable[[], ScalarField] | None = None,
) -> ScalarField:
    """Solve (I - shift * L_q) f = rhs with homogeneous Dirichlet data, for
    shift >= 0 (a negative shift makes the system indefinite).

    x0 is the Krylov initial guess (zero when None) or a zero-argument
    callable that builds it; an isotropic q never reads it."""
    if shift < 0:
        raise ValueError(f"Helmholtz shift must be nonnegative, got {shift!r}")
    vals, _ = _solve(q, rhs, alpha=1.0, scale=-shift, x0=x0, tol=tol, maxiter=maxiter,
                     what="solve_helmholtz")
    return ScalarField(rhs.grid, vals)

