"""Elliptic solvers for the pulled-back operator q^{jk} d_j d_k on the disk.

Two backends share one discretization.  The operator is written in flux
form: the radial part is a conservative finite-volume difference of the
conormal flux (q grad f).e_r through cell edges, the angular part is the
spectral theta-derivative of the nodal flux component (q grad f).e_theta.
For q = c*I this collapses to the classic cell-centered radial scheme
plus spectral d_theta^2, which an angular transform decouples into one
tridiagonal system per mode (the fast path).  The systems of all modes
are stacked into one block-separated tridiagonal matrix whose LAPACK
factorization (dgttrf) is cached per (grid, coefficients, bc), so a fast
solve is two FFTs around one banded back-substitution.  Anisotropic
constant q is solved iteratively, preconditioned by the fast path at the
mean coefficient; BiCGstab, with a GMRES fallback, covers the mild
nonsymmetry the cross-derivative interpolation introduces.

The zero-length inner edge of the first cell ring carries no flux, so no
origin condition is ever needed.  Cross-derivative face values use a
three-ring quadratic interpolation, which keeps the whole operator exact
on quadratic polynomials of the Cartesian coordinates.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .grid import (
    Grid,
    ScalarField,
    mean_value,
    radial_derivative,
    theta_derivative,
)


class EllipticError(RuntimeError):
    """Iterative elliptic solve failed to reach the requested residual."""


def coerce_metric(q) -> np.ndarray:
    """Accept a MetricData, anything with .q_up, or a raw 2x2 array."""
    if hasattr(q, "q_up"):
        q = q.q_up
    q = np.asarray(q, dtype=float)
    if q.shape != (2, 2):
        raise ValueError("coefficient must be a 2x2 matrix")
    if abs(q[0, 1] - q[1, 0]) > 1e-12 * (1.0 + abs(q[0, 1])):
        raise ValueError("coefficient matrix must be symmetric")
    ev = np.linalg.eigvalsh(0.5 * (q + q.T))
    if ev[0] <= 0:
        raise ValueError(f"coefficient matrix must be positive definite, eigenvalues {ev}")
    return 0.5 * (q + q.T)


def _isotropic_part(q: np.ndarray):
    """Return (is_isotropic, mean coefficient)."""
    c = 0.5 * (q[0, 0] + q[1, 1])
    dev = max(abs(q[0, 0] - c), abs(q[1, 1] - c), abs(q[0, 1]))
    return dev <= 1e-13 * abs(c), c


def _profile(grid: Grid, data, where="centers") -> np.ndarray:
    """Boundary/flux profile as an array over the angular nodes."""
    angles = grid.angles if where == "centers" else grid.edge_angles
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


# ---------------------------------------------------------------------------
# fast path: per-mode radial tridiagonal systems
# ---------------------------------------------------------------------------

# Quadratic one-sided closures at the boundary edge r = 1 (cell centers at
# 1 - dr/2, 1 - 3dr/2, ...).  d_r f(1) = CB*f(1) + C1*f[n-1] + C2*f[n-2],
# with the coefficients below divided by dr; exact on radial quadratics.
_CB = 8.0 / 3.0
_C1 = -3.0
_C2 = 1.0 / 3.0


@functools.lru_cache(maxsize=2)
def _mode_factor(grid: Grid, lap_coeff: float, alpha: float, bc: str):
    """LU factors (dgttrf) of the radial systems of every angular mode.

    The per-mode tridiagonal systems are stacked mode-major into one
    block-separated tridiagonal matrix of order n_modes * n_r, with zero
    couplings between blocks, so one dgttrs call solves every mode.  For
    the singular pinned Neumann case (alpha = 0) the first row, which is
    mode zero at the origin, is replaced by f = 0.

    Grids compare by (n_r, n_theta).  Every preconditioner call of one
    Krylov solve shares a key, and an isotropic step uses two (Poisson and
    Helmholtz), so two entries give every hit a larger cache would.  Each
    holds about 0.6 MB at 128x256, and a time-dependent metric, even the
    rotating ellipse's whose mean coefficient moves in the last bits,
    makes new keys every step.
    """
    dr = grid.dr
    r = grid.radii
    rn = r[-1]
    lo = grid.edge_radii[:-1] / (r * dr * dr)   # lo[0] = 0: no inner-edge flux
    up = grid.edge_radii[1:] / (r * dr * dr)
    m2 = grid.modes.astype(float) ** 2
    # diag varies with mode through m^2/r^2; rows are (mode, radius)
    diag = alpha - lap_coeff * (lo + up)[None, :] - lap_coeff * m2[:, None] / (r ** 2)[None, :]
    sub = lap_coeff * lo                  # sub[i] couples radius i to i-1
    sup = lap_coeff * up                  # sup[i] couples radius i to i+1
    if bc == "dirichlet":
        # replace the outer flux by the quadratic closure
        diag[:, -1] = alpha - lap_coeff * lo[-1] + lap_coeff * _C1 / (rn * dr * dr) \
            - lap_coeff * m2 / (rn ** 2)
        sub[-1] = lap_coeff * (lo[-1] + _C2 / (rn * dr * dr))
    elif bc == "neumann":
        diag[:, -1] = alpha - lap_coeff * lo[-1] - lap_coeff * m2 / (rn ** 2)
        sub[-1] = lap_coeff * lo[-1]
    else:
        raise ValueError(f"unknown bc {bc!r}")
    sub[0] = 0.0
    sup[-1] = 0.0
    n_modes = m2.size
    dl = np.tile(sub, n_modes)[1:]
    du = np.tile(sup, n_modes)[:-1]
    d = diag.ravel()
    if bc == "neumann" and alpha == 0.0:
        d[0] = 1.0
        du[0] = 0.0
    *factor, info = dgttrf(dl, d, du, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    if info != 0:
        raise EllipticError(
            f"radial system is singular (lap_coeff={lap_coeff:.6g}, alpha={alpha:.6g}, bc={bc})")
    for a in factor:
        a.flags.writeable = False
    return tuple(factor)


def solve_modes(
    grid: Grid,
    rhs_values: np.ndarray,
    *,
    lap_coeff: float,
    alpha: float = 0.0,
    bc: str = "dirichlet",
    boundary: np.ndarray | None = None,
    flux: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (alpha + lap_coeff * Lap) f = rhs by angular transform plus
    one radial tridiagonal system per mode.

    The radial systems of all modes form one block-separated tridiagonal
    matrix, LU-factored once per (grid, lap_coeff, alpha, bc) and cached;
    a call is an rfft, one banded back-substitution with the real and
    imaginary parts as two right-hand sides, and an irfft.

    bc = "dirichlet": f(1, theta) = boundary (profile at cell angles).
    bc = "neumann":   lap_coeff * d_r f(1, theta) = flux; the mode-zero
    system is singular and is pinned then shifted to zero mean.
    """
    n_r, n_theta = grid.n_r, grid.n_theta
    dr = grid.dr
    r = grid.radii
    rn = r[-1]
    pinned = bc == "neumann" and alpha == 0.0
    factor = _mode_factor(grid, lap_coeff, alpha, bc)

    rhs_hat = np.fft.rfft(rhs_values, axis=1)  # (n_r, n_modes)
    if bc == "dirichlet" and boundary is not None:
        b_hat = np.fft.rfft(_profile(grid, boundary))
        rhs_hat[-1] -= lap_coeff * _CB / (rn * dr * dr) * b_hat
    elif bc == "neumann":
        if flux is not None:
            rhs_hat[-1] -= np.fft.rfft(_profile(grid, flux)) / (rn * dr)
        if pinned:
            # project onto the solvable subspace: the left null vector of the
            # mode-zero system is the cell weight r_i
            rhs_hat[:, 0] -= np.dot(r, rhs_hat[:, 0].real) / np.sum(r)

    n_modes = rhs_hat.shape[1]
    parts = np.empty((2, n_modes, n_r))   # mode-major, one column each
    parts[0] = rhs_hat.real.T
    parts[1] = rhs_hat.imag.T
    if pinned:
        parts[:, 0, 0] = 0.0
    x, _ = dgttrs(*factor, parts.reshape(2, -1).T, overwrite_b=True)
    # the solution spectrum overwrites the right-hand side's
    rhs_hat.real = x[:, 0].reshape(n_modes, n_r).T
    rhs_hat.imag = x[:, 1].reshape(n_modes, n_r).T
    if pinned:
        rhs_hat[:, 0] -= np.dot(r, rhs_hat[:, 0].real) / np.sum(r)
    return np.fft.irfft(rhs_hat, n=n_theta, axis=1)


# ---------------------------------------------------------------------------
# general constant-coefficient operator in flux form
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _angular_coeffs(grid: Grid, shape: tuple, entries: tuple):
    """Directional coefficients of the validated metric against the polar
    frame at the nodes, read-only.  Cached per (grid, q), so the matvecs of
    one Krylov solve validate q and evaluate the trig products once."""
    q = coerce_metric(np.reshape(entries, shape))
    cos, sin = np.cos(grid.angles), np.sin(grid.angles)
    a_rr = q[0, 0] * cos ** 2 + 2.0 * q[0, 1] * sin * cos + q[1, 1] * sin ** 2
    a_tt = q[0, 0] * sin ** 2 - 2.0 * q[0, 1] * sin * cos + q[1, 1] * cos ** 2
    a_rt = (q[1, 1] - q[0, 0]) * sin * cos + q[0, 1] * (cos ** 2 - sin ** 2)
    for a in (a_rr, a_tt, a_rt):
        a.flags.writeable = False
    return a_rr, a_tt, a_rt


def apply_operator(
    q,
    f: ScalarField,
    *,
    closure: str = "free",
    boundary=None,
    flux=None,
) -> ScalarField:
    """Apply q^{jk} d_j d_k to a field.

    closure = "free": the outer-edge flux is quadratically extrapolated
    from the interior (no boundary condition).
    closure = "dirichlet": the outer flux uses the boundary profile.
    closure = "neumann": the outer conormal flux is the given profile.
    """
    g = f.grid
    q = np.asarray(getattr(q, "q_up", q), dtype=float)
    a_rr, a_tt, a_rt = _angular_coeffs(g, q.shape, tuple(q.ravel().tolist()))
    v = f.values
    dr = g.dr
    r = g.radii
    re = g.edge_radii

    dth = theta_derivative(g, v)
    drad = radial_derivative(g, v)

    # --- radial fluxes on interior faces k = 1 .. n_r-1 ---
    fr_face = (v[1:] - v[:-1]) / dr                       # (n_r-1, n_theta)
    ft_face = np.empty_like(fr_face)
    # quadratic interpolation of d_theta f to the face radius
    ft_face[:-1] = 0.375 * dth[:-2] + 0.75 * dth[1:-1] - 0.125 * dth[2:]
    ft_face[-1] = -0.125 * dth[-3] + 0.75 * dth[-2] + 0.375 * dth[-1]
    flux_r = a_rr[None, :] * fr_face + a_rt[None, :] * ft_face / re[1:-1, None]

    # --- outer-edge flux ---
    if closure == "free":
        # cubic ghost ring: keeps the midpoint-flux error structure so the
        # truncation telescopes and the boundary ring stays O(h^2)
        v_ghost = 4.0 * v[-1] - 6.0 * v[-2] + 4.0 * v[-3] - v[-4]
        dth_ghost = 4.0 * dth[-1] - 6.0 * dth[-2] + 4.0 * dth[-3] - dth[-4]
        fr_b = (v_ghost - v[-1]) / dr
        ft_b = -0.125 * dth[-2] + 0.75 * dth[-1] + 0.375 * dth_ghost
        flux_out = a_rr * fr_b + a_rt * ft_b
    elif closure == "dirichlet" and boundary is None:
        flux_out = a_rr * ((_C1 * v[-1] + _C2 * v[-2]) / dr)
    elif closure == "dirichlet":
        b = _profile(g, boundary)
        fr_b = (_CB * b + _C1 * v[-1] + _C2 * v[-2]) / dr
        ft_b = theta_derivative(g, b[None, :])[0]
        flux_out = a_rr * fr_b + a_rt * ft_b
    elif closure == "neumann":
        flux_out = _profile(g, flux)
    else:
        raise ValueError(f"unknown closure {closure!r}")

    weighted = np.empty((g.n_r + 1, g.n_theta))
    weighted[0] = 0.0                                      # zero-length inner edge
    weighted[1:-1] = re[1:-1, None] * flux_r
    weighted[-1] = re[-1] * flux_out
    radial_div = (weighted[1:] - weighted[:-1]) / (r[:, None] * dr)

    # --- angular part, spectral divergence of the nodal theta-flux ---
    g_theta = a_rt[None, :] * drad + a_tt[None, :] * dth / r[:, None]
    angular_div = theta_derivative(g, g_theta) / r[:, None]

    return ScalarField(g, radial_div + angular_div)


# ---------------------------------------------------------------------------
# iterative solves for anisotropic constant coefficients
# ---------------------------------------------------------------------------

def _iterative_solve(apply_a, apply_m, b, x0, grid, tol, maxiter, what):
    """Krylov solve of the left-preconditioned flux-form operator:
    BiCGstab first, GMRES as the stagnation fallback.

    The cross-derivative interpolation makes the operator nonsymmetric,
    which rules out plain CG; composed with the mean-coefficient spectral
    solve the system is well scaled (the raw operator carries m^2/r^2
    entries near the origin that put 1e-10 out of float64's reach), and
    both methods converge in a few dozen iterations for any fixed
    anisotropy ratio.  Convergence is verified on the true preconditioned
    residual, not the recurrence.
    """
    from scipy.sparse.linalg import LinearOperator, bicgstab, gmres

    shape = b.shape
    b_hat = apply_m(b)
    norm_b = float(np.linalg.norm(b_hat))
    if norm_b == 0.0:
        return np.zeros_like(b)
    op = LinearOperator(
        (b.size, b.size),
        matvec=lambda v: apply_m(apply_a(v.reshape(shape))).ravel(),
    )

    def true_res(xf):
        return float(np.linalg.norm(b_hat.ravel() - op @ xf)) / norm_b

    x, _ = bicgstab(op, b_hat.ravel(), x0=x0.ravel(), rtol=0.2 * tol, atol=0.0,
                    maxiter=maxiter)
    res = true_res(x)
    if res <= tol:
        return x.reshape(shape)
    x, _ = gmres(op, b_hat.ravel(), x0=x, rtol=0.2 * tol, atol=0.0,
                 restart=50, maxiter=max(1, maxiter // 10))
    res = true_res(x)
    if res <= tol:
        return x.reshape(shape)
    raise EllipticError(
        f"{what}: iterative solve stalled at relative residual {res:.3e} "
        f"(target {tol:.1e}, {maxiter} iterations)"
    )


def solve_dirichlet(
    q,
    rhs: ScalarField,
    boundary=None,
    *,
    tol: float = 1e-10,
    maxiter: int = 500,
    x0: ScalarField | None = None,
) -> ScalarField:
    """Solve q^{jk} d_j d_k f = rhs with f = boundary on r = 1."""
    q = coerce_metric(q)
    g = rhs.grid
    iso, c = _isotropic_part(q)
    if iso:
        vals = solve_modes(g, rhs.values, lap_coeff=c, bc="dirichlet", boundary=boundary)
        return ScalarField(g, vals)

    # affine split: move the boundary-data contribution to the right side
    b_eff = rhs.values
    if boundary is not None:
        zero = ScalarField.zeros(g)
        b_eff = b_eff - apply_operator(q, zero, closure="dirichlet", boundary=boundary).values

    def apply_a(x):
        return apply_operator(q, ScalarField(g, x), closure="dirichlet").values

    def apply_m(x):
        return solve_modes(g, x, lap_coeff=c, bc="dirichlet")

    start = x0.values if x0 is not None else np.zeros_like(b_eff)
    vals = _iterative_solve(apply_a, apply_m, b_eff, start, g, tol, maxiter, "solve_dirichlet")
    return ScalarField(g, vals)


def solve_helmholtz(
    q,
    rhs: ScalarField,
    shift: float,
    *,
    tol: float = 1e-10,
    maxiter: int = 500,
    x0: ScalarField | None = None,
) -> ScalarField:
    """Solve (I - shift * L_q) f = rhs with homogeneous Dirichlet data."""
    q = coerce_metric(q)
    g = rhs.grid
    iso, c = _isotropic_part(q)
    if iso:
        vals = solve_modes(g, rhs.values, lap_coeff=-shift * c, alpha=1.0, bc="dirichlet")
        return ScalarField(g, vals)

    def apply_a(x):
        return x - shift * apply_operator(q, ScalarField(g, x), closure="dirichlet").values

    def apply_m(x):
        return solve_modes(g, x, lap_coeff=-shift * c, alpha=1.0, bc="dirichlet")

    start = x0.values if x0 is not None else np.zeros_like(rhs.values)
    vals = _iterative_solve(apply_a, apply_m, rhs.values, start, g, tol, maxiter, "solve_helmholtz")
    return ScalarField(g, vals)


def solve_neumann(
    q,
    rhs: ScalarField,
    flux=None,
    *,
    tol: float = 1e-10,
    maxiter: int = 500,
    compat_tol: float = 1e-8,
) -> ScalarField:
    """Solve q^{jk} d_j d_k f = rhs with conormal flux (q grad f).e_r = flux
    on r = 1; the solution is normalized to zero area-weighted mean.

    The data must satisfy the zero-total-flux compatibility of a material
    boundary: the flux circulation minus the source integral vanishes.
    """
    q = coerce_metric(q)
    g = rhs.grid
    fvals = _profile(g, flux)
    total_flux = float(np.sum(fvals) * g.dtheta)
    total_rhs = float(np.sum(rhs.values * g.cell_area))
    if abs(total_flux - total_rhs) > compat_tol:
        raise ValueError(
            "incompatible Neumann data: a material boundary requires the net "
            f"flux to balance the source, got imbalance {total_flux - total_rhs:.3e}"
        )

    iso, c = _isotropic_part(q)
    if iso:
        vals = solve_modes(g, rhs.values, lap_coeff=c, bc="neumann", flux=fvals)
        sol = ScalarField(g, vals)
        sol.values -= mean_value(sol)
        return sol

    zero = ScalarField.zeros(g)
    affine = apply_operator(q, zero, closure="neumann", flux=fvals).values
    b_eff = rhs.values - affine
    area = g.cell_area
    total_area = float(np.sum(area))

    def project(x):
        return x - np.sum(x * area) / total_area

    b_eff = project(b_eff)

    def apply_a(x):
        return project(apply_operator(q, ScalarField(g, x), closure="neumann").values)

    def apply_m(x):
        return project(solve_modes(g, project(x), lap_coeff=c, bc="neumann"))

    vals = _iterative_solve(apply_a, apply_m, b_eff, np.zeros_like(b_eff), g, tol, maxiter,
                            "solve_neumann")
    sol = ScalarField(g, vals)
    sol.values -= mean_value(sol)
    return sol
