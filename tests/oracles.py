"""Independent oracles for the tests: series Bessel functions, bisection
roots, and finite differences.  Deliberately avoids the library code paths
(and scipy.special) so expected values come from a second route."""

import numpy as np


def bessel_j0(x):
    """J0 by its power series; plenty of terms for |x| <= 12."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    term = np.ones_like(x)
    q = (x / 2.0) ** 2
    for k in range(0, 40):
        if k > 0:
            term = term * (-q) / (k * k)
        total = total + term
    return total


def bessel_j1(x):
    """J1 by its power series."""
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    total = np.zeros_like(x)
    term = half.copy()
    q = half ** 2
    for k in range(0, 40):
        if k > 0:
            term = term * (-q) / (k * (k + 1))
        total = total + term
    return total


def bessel_j01() -> float:
    """First positive zero of J0 by bisection on the series."""
    lo, hi = 2.0, 3.0
    flo = float(bessel_j0(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = float(bessel_j0(mid))
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def fd_jacobian(fn, x, h=1e-5):
    """Central finite-difference Jacobian of a 2-vector map."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[:, j] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h)
    return out


def fd_time(fn, t, h=1e-5):
    """Central finite difference in time of a scalar or vector function."""
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def observed_order(errors, factor=2.0):
    """Convergence orders from successive errors under refinement by factor."""
    errors = np.asarray(errors, dtype=float)
    return np.log(errors[:-1] / errors[1:]) / np.log(factor)


def ellipse_kappa(m, t):
    """Strength of Lamb's x1*x2 harmonic for the rotating ellipse, from
    the motion's own parameters (Hydrodynamics, sec. 72)."""
    ax, ay = m.params["a_x"], m.params["a_y"]
    return m.params["phi_dot"](t) * (ax ** 2 - ay ** 2) / (ax ** 2 + ay ** 2)


def thomas_solve_modes(grid, rhs_values, lap_coeff, alpha=0.0, bc="dirichlet",
                       boundary=None, flux=None):
    """Reference for elliptic.solve_modes: the same cell-centered radial
    bands, quadratic boundary closure and mode-zero pinning, assembled per
    angular mode and solved by a plain Thomas sweep over the radii."""
    n_r, n_theta = grid.n_r, grid.n_theta
    dr = 1.0 / n_r
    r = (np.arange(n_r) + 0.5) * dr
    edges = np.arange(n_r + 1) * dr
    lo = edges[:-1] / (r * dr * dr)
    up = edges[1:] / (r * dr * dr)
    m = np.arange(n_theta // 2 + 1, dtype=float)
    cb, c1, c2 = 8.0 / 3.0, -3.0, 1.0 / 3.0     # d_r f(1) = (cb f(1) + c1 f_n + c2 f_n-1) / dr
    rn = r[-1]

    rhs_hat = np.fft.rfft(rhs_values, axis=1)
    sub = lap_coeff * lo.copy()
    sup = lap_coeff * up.copy()
    diag = alpha - lap_coeff * (lo + up)[:, None] - lap_coeff * m[None, :] ** 2 / r[:, None] ** 2
    profile = np.zeros(n_theta)
    if bc == "dirichlet":
        if boundary is not None:
            profile = np.asarray(boundary, dtype=float)
        diag[-1] = alpha - lap_coeff * lo[-1] + lap_coeff * c1 / (rn * dr * dr) \
            - lap_coeff * m ** 2 / rn ** 2
        sub[-1] = lap_coeff * (lo[-1] + c2 / (rn * dr * dr))
        rhs_hat[-1] -= lap_coeff * cb / (rn * dr * dr) * np.fft.rfft(profile)
    else:
        if flux is not None:
            profile = np.asarray(flux, dtype=float)
        diag[-1] = alpha - lap_coeff * lo[-1] - lap_coeff * m ** 2 / rn ** 2
        sub[-1] = lap_coeff * lo[-1]
        rhs_hat[-1] -= np.fft.rfft(profile) / (rn * dr)
    pinned = bc == "neumann" and alpha == 0.0
    if pinned:
        rhs_hat[:, 0] -= np.dot(r, rhs_hat[:, 0].real) / np.sum(r)

    sol = np.empty_like(rhs_hat)
    for k in range(m.size):
        dg = diag[:, k].copy()
        sp = sup.copy()
        d = rhs_hat[:, k].copy()
        if pinned and k == 0:
            dg[0], sp[0], d[0] = 1.0, 0.0, 0.0
        for i in range(1, n_r):
            w = sub[i] / dg[i - 1]
            dg[i] -= w * sp[i - 1]
            d[i] -= w * d[i - 1]
        x = np.empty_like(d)
        x[-1] = d[-1] / dg[-1]
        for i in range(n_r - 2, -1, -1):
            x[i] = (d[i] - sp[i] * x[i + 1]) / dg[i]
        sol[:, k] = x
    if pinned:
        sol[:, 0] -= np.dot(r, sol[:, 0]) / np.sum(r)
    return np.fft.irfft(sol, n=n_theta, axis=1)


def pow_lr_norm(values, weights, p):
    """Reference for grid.integrate: (sum |f|^p w)^(1/p) with a plain pow,
    and max |f| for p = inf."""
    a = np.abs(np.asarray(values, dtype=float))
    if p == np.inf:
        return float(np.max(a))
    return float(np.sum(np.power(a, p) * weights) ** (1.0 / p))


def full_grid_tangency_residual(state):
    """Reference for solver.boundary_tangency_residual: the transport field
    on every node, then the quadratic extrapolation of its radial part."""
    from mdflow.grid import boundary_extrapolate
    from mdflow.solver import advection_field

    g = state.grid
    w = advection_field(state)
    w_r = np.cos(g.angles)[None, :] * w.u1 + np.sin(g.angles)[None, :] * w.u2
    return float(np.max(np.abs(boundary_extrapolate(g, w_r))))


def physical_apply_operator(q, f, closure, boundary=None, flux=None):
    """Reference for elliptic.apply_operator and its boundary lift: the
    flux-form stencil assembled on nodal values, face by face.  closure
    "dirichlet" takes f = boundary on r = 1 (default 0), "neumann" the
    conormal flux `flux` (default 0); either may be a callable of theta.
    Returns nodal values."""
    from mdflow.elliptic import coerce_metric
    from mdflow.grid import radial_derivative, theta_derivative

    def profile(data):
        if data is None:
            return np.zeros(g.n_theta)
        return np.asarray(data(g.angles) if callable(data) else data, dtype=float) \
            * np.ones(g.n_theta)

    g = f.grid
    q = coerce_metric(q)
    c, d, e = 0.5 * (q[0, 0] + q[1, 1]), 0.5 * (q[0, 0] - q[1, 1]), q[0, 1]
    cos2, sin2 = np.cos(2.0 * g.angles), np.sin(2.0 * g.angles)
    a_rr, a_tt, a_rt = c + d * cos2 + e * sin2, c - d * cos2 - e * sin2, e * cos2 - d * sin2
    v = f.values
    dr, r, re = g.dr, g.radii, g.edge_radii
    dth = theta_derivative(g, v)
    drad = radial_derivative(g, v)

    # conormal flux on the interior faces, d_theta f quadratically
    # interpolated to the face radius (mirrored on the last face)
    w0, w1, w2 = 0.375, 0.75, -0.125
    fr_face = (v[1:] - v[:-1]) / dr
    ft_face = np.empty_like(fr_face)
    ft_face[:-1] = w0 * dth[:-2] + w1 * dth[1:-1] + w2 * dth[2:]
    ft_face[-1] = w2 * dth[-3] + w1 * dth[-2] + w0 * dth[-1]
    flux_r = a_rr[None, :] * fr_face + a_rt[None, :] * ft_face / re[1:-1, None]

    # outer edge: the quadratic one-sided d_r through the boundary value
    if closure == "dirichlet":
        b = profile(boundary)
        fr_b = (8.0 / 3.0 * b - 3.0 * v[-1] + (1.0 / 3.0) * v[-2]) / dr
        flux_out = a_rr * fr_b + a_rt * theta_derivative(g, b[None, :])[0]
    elif closure == "neumann":
        flux_out = profile(flux)
    else:
        raise ValueError(f"unknown closure {closure!r}")

    weighted = np.empty((g.n_r + 1, g.n_theta))
    weighted[0] = 0.0                                      # zero-length inner edge
    weighted[1:-1] = re[1:-1, None] * flux_r
    weighted[-1] = re[-1] * flux_out
    radial_div = (weighted[1:] - weighted[:-1]) / (r[:, None] * dr)

    # angular part: spectral divergence of the nodal theta-flux; a_tt's
    # constant part c is c times the spectral second derivative, which keeps
    # the Nyquist mode (-(N/2)^2) where two first derivatives would drop it
    g_theta = a_rt[None, :] * drad + (a_tt - c)[None, :] * dth / r[:, None]
    d2th = np.fft.irfft(-g.modes ** 2.0 * np.fft.rfft(v, axis=1), n=g.n_theta, axis=1)
    return radial_div + theta_derivative(g, g_theta) / r[:, None] + c * d2th / r[:, None] ** 2


def physical_krylov_solve(q, rhs, kind, *, shift=0.0, boundary=None, flux=None, x0=None,
                          tol=1e-10, maxiter=500):
    """Reference for the anisotropic elliptic solves: the physical-space
    left-preconditioned Krylov loop, one physical_apply_operator and one
    nodal solve_modes (two FFTs) per application.  kind is "dirichlet", "helmholtz" or
    "neumann" (zero-mean result).  Returns (values, operator applications);
    the true-residual checks count as applications."""
    from scipy.sparse.linalg import LinearOperator, bicgstab, gmres

    from mdflow.elliptic import coerce_metric, solve_modes
    from mdflow.grid import ScalarField

    q = coerce_metric(q)
    g = rhs.grid
    c = 0.5 * (q[0, 0] + q[1, 1])
    area = g.cell_area

    def project(x):
        return x - np.sum(x * area) / np.sum(area) if kind == "neumann" else x

    b = rhs.values
    if kind == "helmholtz":
        def apply_a(x):
            return x - shift * physical_apply_operator(q, ScalarField(g, x), "dirichlet")

        def apply_m(x):
            return solve_modes(g, x, lap_coeff=-shift * c, alpha=1.0)
    else:
        bc = "neumann" if kind == "neumann" else "dirichlet"

        def apply_a(x):
            return project(physical_apply_operator(q, ScalarField(g, x), bc))

        def apply_m(x):
            return project(solve_modes(g, project(x), lap_coeff=c, bc=bc))
        if boundary is not None or flux is not None:
            zero = ScalarField.zeros(g)
            b = project(b - physical_apply_operator(q, zero, bc, boundary=boundary,
                                                    flux=flux))

    count = [0]

    def matvec(v):
        count[0] += 1
        return apply_m(apply_a(v.reshape(b.shape))).ravel()

    b_hat = apply_m(b).ravel()
    op = LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
    start = np.zeros(b.size) if x0 is None else x0.values.ravel()

    def converged(x):
        return np.linalg.norm(b_hat - matvec(x)) <= tol * np.linalg.norm(b_hat)

    x, _ = bicgstab(op, b_hat, x0=start, rtol=0.2 * tol, atol=0.0, maxiter=maxiter)
    if not converged(x):
        x, _ = gmres(op, b_hat, x0=x, rtol=0.2 * tol, atol=0.0, restart=50,
                     maxiter=max(1, maxiter // 10))
        if not converged(x):
            raise RuntimeError("reference Krylov solve did not converge")
    vals = x.reshape(b.shape)
    if kind == "neumann":
        vals = vals - np.sum(vals * area) / np.sum(area)
    return vals, count[0]
