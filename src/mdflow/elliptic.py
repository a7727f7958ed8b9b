"""Elliptic solvers for the pulled-back operator q^{jk} d_j d_k on the disk.

The operator is written in flux form: the radial part is a conservative
finite-volume difference of the conormal flux (q grad f).e_r through cell
edges, the angular part is the spectral theta-derivative of the nodal flux
component (q grad f).e_theta.  A constant q couples angular modes m and
m +- 2 only, so the one implementation of this stencil acts on a field's
weighted angular spectrum (a Spectrum, in the rfft's own layout) as five
radial bands per coupled mode, built per grid in closed form with the
homogeneous Dirichlet closure at r = 1; apply_operator on nodal values
packs, applies and unpacks.  Every solve has homogeneous data.

For q = c*I an angular transform decouples the operator into one radial
tridiagonal system per mode (the fast path), symmetric positive definite
once its rows are scaled by grid-only weights.  Cyclic reduction factors
all of them at once in numpy, vectorized over the modes, and the factor
is cached per (grid, coefficients).  Anisotropic solves run BiCGstab in
numpy on the spectrum, preconditioned by the cached factor at the mean
coefficient, with no FFT inside the loop; only its stall fallback,
scipy's GMRES, imports scipy.

The zero-length inner edge of the first cell ring carries no flux, so no
origin condition is ever needed.  Cross-derivative face values use a
three-ring quadratic interpolation, which keeps the whole operator exact
on quadratic polynomials of the Cartesian coordinates.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .grid import ONE_SIDED, Grid, ScalarField


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


class Spectrum(NamedTuple):
    """A real field on `grid` as its weighted angular spectrum Z_m = w_m V_m,
    where V is the orthonormal rfft of each ring and w_m = sqrt(2) on modes
    1 .. N/2-1, so the map is an isometry, in the rfft's own layout: the
    real vector of an (n_r, N/2 + 1) complex array viewed as floats, so
    radius-major with each mode's real and imaginary parts side by side.
    The imaginary parts of modes 0 and N/2, columns 1 and -1 of its
    (n_r, N + 2) view, are zero.  apply_operator and solve_modes act on it
    with no transform."""
    grid: Grid
    values: np.ndarray


def _part_weights(n_theta: int) -> np.ndarray:
    """w_m for each column of a Spectrum's (n_r, N + 2) view."""
    w = np.full(n_theta + 2, np.sqrt(2.0))
    w[[0, 1, -2, -1]] = 1.0
    return w


def _pack(values: np.ndarray) -> np.ndarray:
    """Spectrum values of nodal values."""
    x = np.fft.rfft(values, axis=1, norm="ortho").view(float)
    x *= _part_weights(values.shape[1])
    return x.ravel()


def _unpack(x: np.ndarray, n_theta: int) -> np.ndarray:
    """Nodal values of Spectrum values."""
    spec = (x.reshape(-1, n_theta + 2) / _part_weights(n_theta)).view(complex)
    return np.fft.irfft(spec, n=n_theta, axis=1, norm="ortho")


# ---------------------------------------------------------------------------
# fast path: per-mode radial tridiagonal systems
# ---------------------------------------------------------------------------

# Quadratic one-sided closure at the boundary edge r = 1 (cell centers at
# 1 - dr/2, 1 - 3dr/2, ...) with f(1) = 0: d_r f(1) = C1*f[n-1] + C2*f[n-2],
# with the coefficients below divided by dr; exact on radial quadratics.
_C1 = -3.0
_C2 = 1.0 / 3.0

# Quadratic interpolation of the nodal d_theta f to the face between rings
# k-1 and k: the weights of rings k-1, k and k+1.  The last interior face
# uses it mirrored.
_FACE = (0.375, 0.75, -0.125)


@functools.lru_cache(maxsize=2)
def _mode_factor(grid: Grid, lap_coeff: float, alpha: float):
    """The cyclic-reduction factor of the radial systems of every angular
    mode, for _reduce: one entry per odd-even level.

    Row i of mode m couples radius i to i - 1 and i + 1; only its diagonal
    varies with m, through m^2/r^2.  An odd-even level (Buzbee, Golub &
    Nielson 1970) eliminates the unknowns of its even rows by their own
    pivots, which leaves a tridiagonal system in its odd rows for the
    next level, until no row is left.  A level is (the order that puts its
    even rows before its odd ones, the inverse pivots, the even rows' left
    couplings from row 1 and right couplings up to row n_odd - 1, both
    over their pivots, the odd rows' left couplings and right couplings up
    to row n_even - 2).  Each coefficient has shape (rows, modes), or
    (rows, 1) where it is the same for every mode, and is real but stored
    complex: numpy multiplies complex by complex about a quarter faster
    than it casts a real operand to multiply the complex right sides.

    Row i times r_i is symmetric (r_i lo_i = r_{i-1} up_{i-1}); the
    Dirichlet closure's last row takes r_{n-1} e/(e + _C2) instead, e its
    inner edge radius.  Signed as alpha - lap_coeff, these weights make
    the Poisson and Helmholtz systems positive definite.  Cyclic reduction
    is the LDL^T factorization of the weighted matrix with its unknowns
    ordered level by level, whose pivots are the weights times the ones
    here, so by Sylvester's law of inertia that matrix is positive
    definite exactly when every pivot has the sign of alpha - lap_coeff.
    Each pivot is checked before it divides: any other (alpha and
    lap_coeff of one sign, which no solve here builds) raises
    EllipticError.

    Grids compare by (n_r, n_theta).  Every preconditioner call of one
    Krylov solve shares a key, and an isotropic step uses two (Poisson and
    Helmholtz; solve_modes factors every Poisson system of a grid at
    |lap_coeff| = 1), so two entries give every hit a larger cache would.
    Each holds about 1 MB at 128x256, and a time-dependent metric, even
    the rotating ellipse's whose mean coefficient moves in the last bits,
    makes new Helmholtz keys every step.
    """
    dr, r = grid.dr, grid.radii
    lo = grid.edge_radii[:-1] / (r * dr * dr)   # lo[0] = 0: no inner-edge flux
    up = grid.edge_radii[1:] / (r * dr * dr)
    up[-1] = -_C1 / (r[-1] * dr * dr)           # the quadratic closure at r = 1
    b = alpha - lap_coeff * (lo + up)[:, None] - lap_coeff * (grid.modes / r[:, None]) ** 2
    a = lap_coeff * lo[:, None]                 # a[i] couples radius i to i-1
    a[-1] += lap_coeff * _C2 / (r[-1] * dr * dr)
    c = lap_coeff * up[:, None]                 # c[i] couples radius i to i+1
    c[-1] = 0.0
    sign = math.copysign(1.0, alpha - lap_coeff)
    levels = []
    while b.shape[0]:
        n_odd = b.shape[0] // 2
        pivots = b[0::2]
        if not np.all(sign * pivots > 0.0):
            raise EllipticError(f"radial system is not positive definite "
                                f"(lap_coeff={lap_coeff:.6g}, alpha={alpha:.6g})")
        inv = 1.0 / pivots
        a_even, c_even = a[0::2] * inv, c[0::2] * inv
        a_odd, c_odd = a[1::2], c[1::2][:pivots.shape[0] - 1]
        split = np.r_[0:b.shape[0]:2, 1:b.shape[0]:2]
        levels.append((split, *(arr.astype(complex) for arr in
                                (inv, a_even[1:], c_even[:n_odd], a_odd, c_odd))))
        # the odd rows once the even rows' unknowns are eliminated
        b = b[1::2] - a_odd * c_even[:n_odd]
        b[:c_odd.shape[0]] -= c_odd * a_even[1:]
        a = -a_odd * a_even[:n_odd]
        c = np.zeros_like(b)
        c[:c_odd.shape[0]] = -c_odd * c_even[1:]
    for arr in (arr for level in levels for arr in level):
        arr.flags.writeable = False
    return tuple(levels)


def _reduce(levels, x: np.ndarray, out: np.ndarray) -> None:
    """Solve the systems factored by _mode_factor for the complex right
    sides x, shape (n_r, modes), into out (x itself or an array of its
    shape).  Each level gathers its even rows, then its odd rows, into one
    contiguous array, so that every update is a contiguous pass (numpy
    runs a strided one row by row), and scatters the solved rows back."""
    stack = []
    for split, inv, _, _, a_odd, c_odd in levels:
        rows = x[split]
        stack.append((out, rows))
        even, x = rows[:inv.shape[0]], rows[inv.shape[0]:]
        out = x
        even *= inv
        x -= a_odd * even[:x.shape[0]]
        x[:c_odd.shape[0]] -= c_odd * even[1:]
    for (split, inv, a_even, c_even, _, _), (out, rows) in zip(reversed(levels),
                                                                reversed(stack)):
        even, odd = rows[:inv.shape[0]], rows[inv.shape[0]:]
        even[1:] -= a_even * odd[:a_even.shape[0]]
        even[:c_even.shape[0]] -= c_even * odd
        out[split] = rows


def solve_modes(
    grid: Grid,
    rhs_values,
    *,
    lap_coeff: float,
    alpha: float = 0.0,
):
    """Solve (alpha + lap_coeff * Lap) f = rhs with f = 0 on r = 1 by
    angular transform plus one radial tridiagonal system per mode.

    The radial systems of all modes are factored once per (grid,
    lap_coeff, alpha) by cyclic reduction and cached (see _mode_factor);
    a Poisson system (alpha = 0) is lap_coeff times one matrix, factored
    once per grid.  A call is an rfft, one reduction in place on the
    spectrum's real and imaginary parts, and an irfft.  A Spectrum right
    side skips both transforms and gives a Spectrum, and is left as it
    was.
    """
    scale = 1.0
    if alpha == 0.0 and lap_coeff != 0.0:
        lap_coeff, scale = math.copysign(1.0, lap_coeff), abs(lap_coeff)
    factor = _mode_factor(grid, lap_coeff, alpha)
    spectral = isinstance(rhs_values, Spectrum)
    if spectral:
        x = np.empty_like(rhs_values.values)
        _reduce(factor, rhs_values.values.view(complex).reshape(grid.n_r, -1),
                x.view(complex).reshape(grid.n_r, -1))
    else:
        spec = np.fft.rfft(rhs_values, axis=1)
        _reduce(factor, spec, spec)
        x = np.fft.irfft(spec, n=grid.n_theta, axis=1)
    if scale != 1.0:
        x /= scale
    return Spectrum(grid, x) if spectral else x


# ---------------------------------------------------------------------------
# the flux-form operator on the Spectrum, and the anisotropic solves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=2)
class _ModeOperator:
    """The flux-form stencil with the homogeneous Dirichlet closure on the
    complex spectrum Z of a Spectrum, one per grid.

    Against the polar frame q has a_rr = c + Re(g e^{2i theta}),
    a_tt = c - Re(g e^{2i theta}) and a_rt = Re(i g e^{2i theta}), with
    c = (q00 + q11)/2 and g = (q00 - q11)/2 - i q01.  So Z_m takes Z_m with
    weight c, Z_{m-2} with g/2 and Z_{m+2} with conj(g)/2, each through a
    radial band (offsets -2..2) of the stencil's pieces: the conormal flux
    difference with its outer closure, the face-interpolated and centred
    theta-fluxes with their spectral d_theta (Nyquist dropped), the
    pi-shifted origin ghost and the a_tt term, whose c part is -c m^2 on
    every mode, the Nyquist one too, as in the fast path.  A source index
    outside 0..N/2 folds back conjugated (V_{-k} = V_{N-k} = conj V_k).

    The band values are real and q-free: base[offset, side] holds them
    for offsets -1..2 per radius and mode, twice over, so that they
    multiply a mode's real and imaginary parts in the spectrum's float
    view; offset -2, which only the one-sided d_r of the last ring reads,
    is last_ring[side].  A call sums each side's shifted products in one
    einsum and weights the three sums by q's coefficients.
    """

    def __init__(self, grid: Grid):
        n, nt, half, dr, r = grid.n_r, grid.n_theta, grid.n_theta // 2, grid.dr, grid.radii
        m = np.arange(half + 1)
        w = _part_weights(nt)[::2]

        def freq(k):                               # d_theta multiplier / i
            k = (k + half) % nt - half
            return np.where(np.abs(k) == half, 0, k)

        sigma = np.array([1, 0, -1])[None, :]      # sources m - 2, m, m + 2
        j = m[:, None] - 2 * sigma
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
        base = np.einsum("tms,tio->osim", coef, bands)  # (offset, side, radius, mode)
        base *= (w[:, None] / w[jf]).T[:, None, :]
        i_o = np.arange(n) + np.arange(-2, 3)[:, None]
        base *= ((i_o >= 0) & (i_o < n))[:, None, :, None]   # no ring outside the disk
        base = np.repeat(base, 2, axis=-1)
        self.base, self.last_ring = base[1:], base[0, :, -1]

    def __call__(self, z: np.ndarray, c: float, g: complex) -> np.ndarray:
        """L z for the complex spectrum z, shape (n_r, N/2 + 1), at q's
        coefficients c and g."""
        n, half = z.shape[0], z.shape[1] - 1
        # row i + 2 holds radius i and column k + 2 source mode k, so the
        # window at row o and column 2s reads side s at offset o - 2
        padded = np.zeros((n + 4, half + 5), dtype=complex)
        padded[2:-2, 2:-2] = z
        padded[2:-2, :2] = z[:, [2, 1]].conj()
        padded[2:-2, -2:] = z[:, [half - 1, half - 2]].conj()
        windows = np.lib.stride_tricks.sliding_window_view(padded.view(float),
                                                           self.base.shape[2:])[:, ::4]
        sums = np.einsum("osij,osij->sij", self.base, windows[1:])
        sums[:, -1] += self.last_ring * windows[0, :, -1]
        sums = sums.view(complex)
        weights = np.array([0.5 * g, c, 0.5 * np.conj(g)])
        return (weights @ sums.reshape(3, -1)).reshape(n, -1)


def apply_operator(q, f):
    """Apply q^{jk} d_j d_k with f = 0 on r = 1 to a Spectrum, or to a
    ScalarField through its Spectrum."""
    g = f.grid
    q = coerce_metric(q)
    c, d, e = 0.5 * (q[0, 0] + q[1, 1]), 0.5 * (q[0, 0] - q[1, 1]), q[0, 1]
    spectral = isinstance(f, Spectrum)
    z = (f.values if spectral else _pack(f.values)).view(complex)
    y = _ModeOperator(g)(z.reshape(g.n_r, -1), c, complex(d, -e)).view(float)
    y[:, 1::g.n_theta] = 0.0                   # Im of modes 0 and N/2
    y = y.ravel()
    return Spectrum(g, y) if spectral else ScalarField(g, _unpack(y, g.n_theta))


# the anisotropic solves' relative residual and BiCGstab iteration budget
_TOL = 1e-10
_MAXITER = 500


class _SolveReport(NamedTuple):
    """Operator applications, final true residual, GMRES fallback used."""
    applications: int
    residual: float
    fallback: bool


def _bicgstab(matvec, b: np.ndarray, x: np.ndarray | None, rtol: float,
              maxiter: int) -> np.ndarray:
    """BiCGstab for matvec(x) = b from the initial guess x (zero when None)
    to a residual below rtol |b|, as scipy.sparse.linalg.bicgstab runs it
    with no preconditioner and atol = 0: the same updates in the same
    order, the same breakdown exits, so the same applications.  Returns
    the last iterate; the caller checks its true residual."""
    atol = rtol * float(np.linalg.norm(b))
    tiny = np.finfo(float).eps ** 2           # rho and omega breakdown
    x = np.zeros_like(b) if x is None else x.copy()
    r = b - matvec(x) if x.any() else b.copy()
    r_tilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            break
        rho = np.dot(r_tilde, r)
        if abs(rho) < tiny:
            break
        if iteration == 0:
            p = r.copy()
        else:
            if abs(omega) < tiny:
                break
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        v = matvec(p)
        rv = np.dot(r_tilde, v)
        if rv == 0:
            break
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * p
            break
        t = matvec(r)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
    return x


def _solve(q, rhs: ScalarField, *, alpha=0.0, scale=1.0, x0=None, tol: float,
           maxiter: int, what: str):
    """Solve (alpha + scale * L_q) f = rhs with f = 0 on r = 1; returns
    (values, _SolveReport).

    An isotropic q takes the fast path.  Otherwise BiCGstab runs on the
    Spectrum, left-preconditioned by the fast path at the mean
    coefficient, to a true preconditioned residual of tol, from the
    initial guess x0: a ScalarField, or a zero-argument callable returning
    one that is called only here, so a guess that costs array work is
    built for Krylov solves alone.  Should it stall, scipy's restarted
    GMRES takes over, the one use of scipy in a run.  Each application is
    one apply_operator and one solve_modes on a Spectrum, with no FFT; the
    imaginary parts of modes 0 and N/2 are identity rows.  The
    cross-derivative interpolation makes the operator nonsymmetric (no
    CG), and its m^2/r^2 entries near the origin put 1e-10 out of reach
    unpreconditioned.
    """
    q = coerce_metric(q)
    g = rhs.grid
    b = rhs.values
    iso, c = _isotropic_part(q)
    if iso:
        vals = solve_modes(g, b, lap_coeff=scale * c, alpha=alpha)
        return vals, _SolveReport(0, 0.0, False)

    n = g.n_r
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
        y.reshape(n, -1)[:, 1::g.n_theta] = x.reshape(n, -1)[:, 1::g.n_theta]
        return y

    b_hat = precondition(_pack(b))
    norm_b = float(np.linalg.norm(b_hat))
    if norm_b == 0.0:
        return np.zeros_like(b), _SolveReport(0, 0.0, False)
    # solve for 2^-k times the solution, k chosen to put |b_hat| in
    # [0.5, 1): BiCGstab's breakdown tests are absolute, so a small right
    # side would stall them; a power of two scales every iterate exactly
    k = math.frexp(norm_b)[1]
    b_hat = np.ldexp(b_hat, -k)
    norm_b = float(np.linalg.norm(b_hat))

    def true_res(x):
        return float(np.linalg.norm(b_hat - matvec(x))) / norm_b

    if callable(x0):
        x0 = x0()
    start = None if x0 is None else np.ldexp(_pack(x0.values), -k)
    x = _bicgstab(matvec, b_hat, start, 0.2 * tol, maxiter)
    res, fallback = true_res(x), False
    if res > tol:
        from scipy.sparse.linalg import LinearOperator, gmres   # the stall fallback only

        op = LinearOperator((b_hat.size,) * 2, matvec=matvec, dtype=float)
        x, _ = gmres(op, b_hat, x0=x, rtol=0.2 * tol, atol=0.0,
                     restart=50, maxiter=max(1, maxiter // 10))
        res, fallback = true_res(x), True
    if res > tol:
        raise EllipticError(
            f"{what}: iterative solve stalled at relative residual {res:.3e} "
            f"(target {tol:.1e}, {maxiter} iterations)"
        )
    return _unpack(np.ldexp(x, k), g.n_theta), _SolveReport(applications, res, fallback)


def solve_dirichlet(
    q,
    rhs: ScalarField,
    *,
    x0: ScalarField | Callable[[], ScalarField] | None = None,
) -> ScalarField:
    """Solve q^{jk} d_j d_k f = rhs with f = 0 on r = 1.

    x0 is the Krylov initial guess (zero when None) or a zero-argument
    callable that builds it; an isotropic q never reads it."""
    vals, _ = _solve(q, rhs, x0=x0, tol=_TOL, maxiter=_MAXITER, what="solve_dirichlet")
    return ScalarField(rhs.grid, vals)


def solve_helmholtz(
    q,
    rhs: ScalarField,
    shift: float,
    *,
    x0: ScalarField | Callable[[], ScalarField] | None = None,
) -> ScalarField:
    """Solve (I - shift * L_q) f = rhs with homogeneous Dirichlet data, for
    shift >= 0 (a negative shift makes the system indefinite).

    x0 is the Krylov initial guess (zero when None) or a zero-argument
    callable that builds it; an isotropic q never reads it."""
    if shift < 0:
        raise ValueError(f"Helmholtz shift must be nonnegative, got {shift!r}")
    vals, _ = _solve(q, rhs, alpha=1.0, scale=-shift, x0=x0, tol=_TOL, maxiter=_MAXITER,
                     what="solve_helmholtz")
    return ScalarField(rhs.grid, vals)

