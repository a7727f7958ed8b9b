"""Elliptic solvers for the pulled-back operator q^{jk} d_j d_k on the disk.

Two backends share one discretization.  The operator is written in flux
form: the radial part is a conservative finite-volume difference of the
conormal flux (q grad f).e_r through cell edges, the angular part is the
spectral theta-derivative of the nodal flux component (q grad f).e_theta.
For q = c*I this collapses to the classic cell-centered radial scheme
plus spectral d_theta^2, which an angular transform decouples into one
tridiagonal system per mode (the fast path).  Anisotropic constant q is
solved iteratively, preconditioned by the fast path at the mean
coefficient; BiCGstab, with a GMRES fallback, covers the mild
nonsymmetry the cross-derivative interpolation introduces.

The zero-length inner edge of the first cell ring carries no flux, so no
origin condition is ever needed.  Cross-derivative face values use a
three-ring quadratic interpolation, which keeps the whole operator exact
on quadratic polynomials of the Cartesian coordinates.
"""

from __future__ import annotations

import numpy as np

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


def _radial_coeffs(grid: Grid):
    """lo/up flux coefficients of the conservative radial operator."""
    dr = grid.dr
    r = grid.radii
    lo = grid.edge_radii[:-1] / (r * dr * dr)   # lo[0] = 0: no inner-edge flux
    up = grid.edge_radii[1:] / (r * dr * dr)
    return lo, up


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
    one radial tridiagonal solve per mode.

    bc = "dirichlet": f(1, theta) = boundary (profile at cell angles).
    bc = "neumann":   lap_coeff * d_r f(1, theta) = flux; the mode-zero
    system is singular and is pinned then shifted to zero mean.
    """
    n_r, n_theta = grid.n_r, grid.n_theta
    dr = grid.dr
    r = grid.radii
    lo, up = _radial_coeffs(grid)
    m = grid.modes.astype(float)

    rhs_hat = np.fft.rfft(rhs_values, axis=1)  # (n_r, n_modes)

    # tridiagonal bands; diag varies with mode through m^2/r^2
    sub = lap_coeff * lo.copy()
    sup = lap_coeff * up.copy()
    diag = alpha - lap_coeff * (lo + up)[:, None] - lap_coeff * (m[None, :] ** 2) / (r[:, None] ** 2)

    rn = r[-1]
    if bc == "dirichlet":
        b_hat = np.fft.rfft(_profile(grid, boundary))
        # replace the outer flux by the quadratic closure
        diag[-1] = alpha - lap_coeff * lo[-1] + lap_coeff * _C1 / (rn * dr * dr) \
            - lap_coeff * (m ** 2) / (rn ** 2)
        sub[-1] = lap_coeff * (lo[-1] + _C2 / (rn * dr * dr))
        rhs_hat[-1] -= lap_coeff * _CB / (rn * dr * dr) * b_hat
    elif bc == "neumann":
        f_hat = np.fft.rfft(_profile(grid, flux))
        diag[-1] = alpha - lap_coeff * lo[-1] - lap_coeff * (m ** 2) / (rn ** 2)
        sub[-1] = lap_coeff * lo[-1]
        rhs_hat[-1] -= f_hat / (rn * dr)
        if alpha == 0.0:
            # project onto the solvable subspace: the left null vector of the
            # mode-zero system is the cell weight r_i
            imb = np.dot(r, rhs_hat[:, 0].real) / np.sum(r)
            rhs_hat[:, 0] -= imb
    else:
        raise ValueError(f"unknown bc {bc!r}")

    pinned = bc == "neumann" and alpha == 0.0

    def thomas(dg, sb, sp, d, pin_first=False):
        # dg: (n_r, ...) diagonal, sb[i] couples row i to i-1, sp[i] to i+1
        n = dg.shape[0]
        dg = np.array(dg, copy=True)
        d = np.array(d, copy=True)
        sp = np.array(sp, dtype=float, copy=True)
        if pin_first:
            dg[0] = 1.0
            sp[0] = 0.0
            d[0] = 0.0
        for i in range(1, n):
            w = sb[i] / dg[i - 1]
            dg[i] = dg[i] - w * sp[i - 1]
            d[i] = d[i] - w * d[i - 1]
        x = np.empty_like(d)
        x[n - 1] = d[n - 1] / dg[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = (d[i] - sp[i] * x[i + 1]) / dg[i]
        return x

    if pinned:
        sol = np.empty_like(rhs_hat)
        if rhs_hat.shape[1] > 1:
            sol[:, 1:] = thomas(diag[:, 1:], sub, sup, rhs_hat[:, 1:])
        sol0 = thomas(diag[:, 0], sub, sup, rhs_hat[:, 0], pin_first=True)
        sol0 -= np.dot(r, sol0) / np.sum(r)
        sol[:, 0] = sol0
    else:
        sol = thomas(diag, sub, sup, rhs_hat)
    return np.fft.irfft(sol, n=n_theta, axis=1)


# ---------------------------------------------------------------------------
# general constant-coefficient operator in flux form
# ---------------------------------------------------------------------------

def _angular_coeffs(grid: Grid, q: np.ndarray):
    """Directional coefficients of q against the polar frame at the nodes."""
    cos, sin = np.cos(grid.angles), np.sin(grid.angles)
    a_rr = q[0, 0] * cos ** 2 + 2.0 * q[0, 1] * sin * cos + q[1, 1] * sin ** 2
    a_tt = q[0, 0] * sin ** 2 - 2.0 * q[0, 1] * sin * cos + q[1, 1] * cos ** 2
    a_rt = (q[1, 1] - q[0, 0]) * sin * cos + q[0, 1] * (cos ** 2 - sin ** 2)
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
    from the interior (elliptic_apply semantics, no boundary condition).
    closure = "dirichlet": the outer flux uses the boundary profile.
    closure = "neumann": the outer conormal flux is the given profile.
    """
    q = coerce_metric(q)
    g = f.grid
    v = f.values
    dr = g.dr
    r = g.radii
    re = g.edge_radii
    a_rr, a_tt, a_rt = _angular_coeffs(g, q)

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


def elliptic_apply(q, f: ScalarField) -> ScalarField:
    """q^{jk} d_j d_k f with no boundary condition (free closure)."""
    return apply_operator(q, f, closure="free")


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
    zero = ScalarField.zeros(g)
    affine = apply_operator(q, zero, closure="dirichlet", boundary=boundary).values
    b_eff = rhs.values - affine

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
