"""Independent oracles for the tests: series Bessel functions, bisection
roots, finite differences, and second routes to what the library computes
(the physical-space stencil and weak form, the gradient-only weak form,
the sign-and-roll advection kernels, plain Thomas sweeps, the pulled-back
Neumann problem for the homogenizing field, point maps and boundary
geometry).  Avoids the code paths under test (and scipy.special) so
expected values come from a second route."""

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


def ellipse_kappa(ax, phi_dot):
    """Strength of Lamb's x1*x2 harmonic for the ellipse with semi-axes
    (ax, 1/ax) turning at the rate phi_dot (Hydrodynamics, sec. 72)."""
    ay = 1.0 / ax
    return phi_dot * (ax ** 2 - ay ** 2) / (ax ** 2 + ay ** 2)


def thomas_solve_modes(grid, rhs_values, lap_coeff, alpha=0.0, bc="dirichlet",
                       boundary=None, flux=None):
    """Reference for elliptic.solve_modes ("dirichlet": the same
    cell-centered radial bands and quadratic boundary closure), and the
    Neumann preconditioner of physical_krylov_solve ("neumann": no flux
    beyond r = 1, mode zero pinned at the origin), assembled per angular
    mode and solved by a plain Thomas sweep over the radii."""
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


def zeros(grid):
    """The zero ScalarField on grid."""
    from mdflow.grid import ScalarField

    return ScalarField(grid, np.zeros((grid.n_r, grid.n_theta)))


def mean_value(f):
    """Area-weighted mean of a ScalarField over the disk."""
    w = f.grid.cell_area
    return float(np.sum(f.values * w) / np.sum(w))


def _polar_parts(v):
    """Radial and angular components of a VectorField, and the radii."""
    g = v.grid
    cos, sin = np.cos(g.angles)[None, :], np.sin(g.angles)[None, :]
    return cos * v.u1 + sin * v.u2, -sin * v.u1 + cos * v.u2, g.radii[:, None]


def _physical_gradients(v, jac):
    """((d1 v1, d2 v1), (d1 v2, d2 v2)) of physical components sampled at
    the reference nodes, through the chain rule with jac = dy/dx."""
    from mdflow.grid import pushforward

    Tt = np.asarray(jac, dtype=float).T
    return [pushforward(Tt, *d) for d in _gradients(v.grid, v.u1, v.u2)]


def divergence(v, jac=None):
    """Divergence of a VectorField of Cartesian components, in flux form on
    the polar grid; with jac = dy/dx of an affine map the components are
    physical ones sampled at the reference nodes and the chain rule gives
    the physical divergence."""
    from mdflow.grid import ScalarField, radial_derivative, theta_derivative

    g = v.grid
    if jac is None:
        vr, vt, r = _polar_parts(v)
        return ScalarField(g, radial_derivative(g, r * vr) / r + theta_derivative(g, vt) / r)
    (d1v1, _), (_, d2v2) = _physical_gradients(v, jac)
    return ScalarField(g, d1v1 + d2v2)


def curl(v, jac=None):
    """Scalar curl d1 u2 - d2 u1; jac as in divergence."""
    from mdflow.grid import ScalarField, radial_derivative, theta_derivative

    g = v.grid
    if jac is None:
        vr, vt, r = _polar_parts(v)
        return ScalarField(g, radial_derivative(g, r * vt) / r - theta_derivative(g, vr) / r)
    (_, d2v1), (d1v2, _) = _physical_gradients(v, jac)
    return ScalarField(g, d1v2 - d2v1)


def pow_lr_norm(values, weights, p):
    """Reference for grid.integrate: (sum |f|^p w)^(1/p) with a plain pow,
    and max |f| for p = inf."""
    a = np.abs(np.asarray(values, dtype=float))
    if p == np.inf:
        return float(np.max(a))
    return float(np.sum(np.power(a, p) * weights) ** (1.0 / p))


def advection_field(state):
    """Reference transport field w = (dy/dx)(u - V) on every node, with u
    the state's physical velocity v + rho and V the material velocity of
    the domain."""
    from mdflow.grid import VectorField, pushforward
    from mdflow.motion import material_velocity

    m, g, t = state.motion, state.grid, state.t
    pts = np.stack([g.y1, g.y2], axis=-1)
    vel = material_velocity(m, pts.reshape(-1, 2), t).reshape(pts.shape)
    return VectorField(g, *pushforward(m.forward_matrix(t), state.u_phys.u1 - vel[..., 0],
                                       state.u_phys.u2 - vel[..., 1]))


def full_grid_tangency_residual(state):
    """Reference for solver.boundary_tangency_residual: the transport field
    on every node, then the quadratic extrapolation of its radial part."""
    from mdflow.grid import boundary_extrapolate

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
    nodal fast solve per application: solve_modes (two FFTs) for
    "dirichlet" and "helmholtz", the pinned thomas_solve_modes for
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
            if kind == "neumann":
                return project(thomas_solve_modes(g, project(x), c, bc="neumann"))
            return solve_modes(g, x, lap_coeff=c)
        if boundary is not None or flux is not None:
            b = project(b - physical_apply_operator(q, zeros(g), bc, boundary=boundary,
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


def numerical_rho(m, t, grid):
    """Reference for homogenize.homogenization: rho = grad h, with h from
    the pulled-back Neumann problem on the reference disk, solved by
    physical_krylov_solve.  The physical conormal data g becomes
    g |dx/dtheta| on the unit circle (the same arc factor maps the length
    elements), and the physical gradient follows by the chain rule.  Data
    whose circulation does not vanish, which no area-preserving motion
    gives, has no solution and is refused."""
    from mdflow.grid import ScalarField, VectorField, gradient, pushforward
    from mdflow.motion import boundary_arc_factor, boundary_flux, metric_at

    m.check_time(t)
    circ = flux_circulation(m, t, n=max(64, grid.n_theta))
    if abs(circ) > 1e-8:
        raise ValueError("boundary flux violates the zero-circulation compatibility of an "
                         f"area-preserving motion: circulation {circ:.3e}")
    flux = boundary_flux(m, grid.angles, t) * boundary_arc_factor(m, grid.angles, t)
    h, _ = physical_krylov_solve(metric_at(m, t).q_up, zeros(grid), "neumann", flux=flux)
    grad_ref = gradient(ScalarField(grid, h))
    return VectorField(grid, *pushforward(m.forward_matrix(t).T, grad_ref.u1, grad_ref.u2))


def _apply_affine(M, b, pts):
    return np.asarray(pts, dtype=float) @ M.T + b


def map_forward(m, x, t):
    """Reference point y = T x + d of the physical point x at time t."""
    m.check_time(t)
    return _apply_affine(m.forward_matrix(t), m.offset(t), x)


def map_backward(m, y, t):
    """Physical point x = S (y - d) of the reference point y at time t."""
    m.check_time(t)
    S = m.inverse_matrix(t)
    return _apply_affine(S, -S @ m.offset(t), y)


def flux_circulation(m, t, n=64):
    """Circulation of the boundary flux g along the moving boundary, which
    vanishes for any area-preserving motion (the divergence theorem applied
    to the material velocity).  The n-point periodic trapezoid is
    spectrally accurate for the smooth periodic integrand of an affine
    motion."""
    from mdflow.motion import boundary_arc_factor, boundary_flux

    theta = np.arange(n) * (2.0 * np.pi / n)
    vals = boundary_flux(m, theta, t) * boundary_arc_factor(m, theta, t)
    return float(np.sum(vals) * (2.0 * np.pi / n))


def boundary_point(m, theta, t):
    """Physical boundary point at reference angle theta."""
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return map_backward(m, e, t)


def curl_matrix(md):
    """The matrix A with curl_x v = A : D_y v-tilde for pushed-forward
    fields, from a MetricData: A_ij = S_2j T_i1 - S_1j T_i2, i.e. A = -T J S,
    which is -J q_down because T J T^T = det(T) J = J for a unit-Jacobian
    map."""
    return -np.array([[0.0, -1.0], [1.0, 0.0]]) @ md.q_down


def _ellipse_nearest_angle(ax, ay, p, tol=1e-12, maxiter=50):
    """Parameter angle of the nearest point on the ellipse (ax cos, ay sin);
    expects p folded into the first quadrant."""
    px, py = p[0], p[1]
    th = np.arctan2(ax * py, ay * px) if (px > 0 or py > 0) else 0.0
    for _ in range(maxiter):
        c, s = np.cos(th), np.sin(th)
        ex, ey = ax * c, ay * s
        # stationarity of |E e(th) - p|^2
        f = (ex - px) * (-ax * s) + (ey - py) * (ay * c)
        fp = (ex - px) * (-ax * c) + (ey - py) * (-ay * s) + (ax * s) ** 2 + (ay * c) ** 2
        step = f / fp
        th -= step
        th = min(max(th, 0.0), np.pi / 2)
        if abs(step) < tol:
            break
    return th


def _ellipse_signed_distance(ax, ay, p):
    """Signed distance to the ellipse boundary, positive inside."""
    q = np.abs(np.asarray(p, dtype=float))
    th = _ellipse_nearest_angle(ax, ay, q)
    nearest = np.array([ax * np.cos(th), ay * np.sin(th)])
    dist = float(np.linalg.norm(nearest - q))
    inside = (q[0] / ax) ** 2 + (q[1] / ay) ** 2 <= 1.0
    return dist if inside else -dist


def signed_distance(m, x, t):
    """Signed distance to the moving boundary, positive inside Omega_t.

    With this sign the outward normal is -grad gamma and the boundary flux
    is d gamma / dt.  The boundary is the ellipse about c = -S d whose
    body axes and squared semi-axes are the eigenvectors and eigenvalues
    of S S^T; a nearest-point Newton iteration runs in the body frame.
    """
    m.check_time(t)
    S = m.inverse_matrix(t)
    lam, Q = np.linalg.eigh(S @ S.T)
    body = (np.asarray(x, dtype=float) + S @ m.offset(t)) @ Q
    return _ellipse_signed_distance(np.sqrt(lam[0]), np.sqrt(lam[1]), body)


def radial_test_field(grid, t_final):
    """The weak-form test field without diagnostics.make_test_field's
    1 + y1/2 factor: the exact perpendicular gradient of the radial stream
    (1 - r^2)^2, with the same profile h(t) = 1 - t/T.  On radial data the
    symmetric terms of the weak form cancel against it discretely."""
    from mdflow.diagnostics import TestField
    from mdflow.grid import VectorField

    y1, y2 = grid.y1, grid.y2
    dbase = -4.0 * (1.0 - (y1 ** 2 + y2 ** 2))
    return TestField(theta=VectorField(grid, -(dbase * y2), dbase * y1),
                     profile=lambda t: 1.0 - t / t_final,
                     profile_dot=lambda t: -1.0 / t_final)


class _Trapezoid:
    """Running trapezoid integral of values fed in time order."""

    def __init__(self):
        self.integral = 0.0
        self._prev = None

    def add(self, t, val):
        if self._prev is not None:
            self.integral += 0.5 * (val + self._prev[1]) * (t - self._prev[0])
        self._prev = (t, val)


def _gradients(grid, *components):
    """grid.gradient of each component, as (d/dy1, d/dy2) pairs."""
    from mdflow.grid import ScalarField, gradient

    return [(gr.u1, gr.u2) for gr in (gradient(ScalarField(grid, c)) for c in components)]


class PhysicalWeakForm:
    """Reference for diagnostics.WeakFormAccumulator through the change of
    variables: the weak form written as plain moving-domain pairings with
    the time-dependent test field h(t) S theta sampled at the reference
    nodes, plus, on a viscous state, the viscosity's gradient pairing (the
    viscous identity).  Same streaming interface and time quadrature."""

    def __init__(self, test):
        self.test = test
        self._time = _Trapezoid()
        self._init_pairing = None

    def add(self, s):
        from mdflow.grid import pushforward
        from mdflow.motion import material_velocity

        test, g, m, t = self.test, s.grid, s.motion, s.t
        theta, area = test.theta, g.cell_area
        h, h_dot = test.profile(t), test.profile_dot(t)
        T, S, S_dot = m.forward_matrix(t), m.inverse_matrix(t), m.inverse_matrix_dt(t)
        pts = np.stack([g.y1, g.y2], axis=-1).reshape(-1, 2)
        vel = material_velocity(m, pts, t).reshape(g.n_r, g.n_theta, 2)
        # dy/dt at fixed y: minus the pushforward of the material velocity
        w1, w2 = pushforward(-T, vel[..., 0], vel[..., 1])
        dtheta = _gradients(g, theta.u1, theta.u2)
        v1 = s.u_phys.u1 - s.rho.u1
        v2 = s.u_phys.u2 - s.rho.u2

        def pair(a1, a2, b1, b2):
            return float(np.sum((a1 * b1 + a2 * b2) * area))

        def physical(*components):
            # (d/dx1, d/dx2) of physical components sampled at reference nodes
            return [pushforward(T.T, *d) for d in _gradients(g, *components)]

        # theta_phys = h(t) S theta evaluated at the reference nodes
        th1, th2 = pushforward(S, theta.u1, theta.u2)
        # d/dt of S theta at fixed x: dS/dt theta + S (dy/dt . grad) theta
        sd1, sd2 = pushforward(S_dot, theta.u1, theta.u2)
        sa1, sa2 = pushforward(S, *(w1 * d[0] + w2 * d[1] for d in dtheta))
        dt_th1 = h_dot * th1 + h * (sd1 + sa1)
        dt_th2 = h_dot * th2 + h * (sd2 + sa2)
        dv = physical(v1, v2)
        drho = physical(s.rho.u1, s.rho.u2)
        # the advective pairing carries (v.grad)rho as well: the change of
        # dependent variables produces it alongside (rho.grad)v, and only
        # their sum has the curl that the vorticity equation solves
        adv = [(v1 * dv[i][0] + v2 * dv[i][1]) + (s.rho.u1 * dv[i][0] + s.rho.u2 * dv[i][1])
               + (v1 * drho[i][0] + v2 * drho[i][1]) for i in range(2)]
        val = -pair(v1, v2, dt_th1, dt_th2) + h * pair(adv[0], adv[1], th1, th2)
        dth_x = physical(th1, th2)
        term = sum(dv[i][k] * dth_x[i][k] for i in range(2) for k in range(2))
        val += s.nu * h * float(np.sum(term * area))
        if self._init_pairing is None:
            self._init_pairing = h * pair(v1, v2, th1, th2)
        self._time.add(t, val)

    def result(self):
        return abs(self._time.integral - self._init_pairing)


class ViscousReferenceForm:
    """diagnostics.WeakFormAccumulator plus the viscous term it leaves out,
    nu h(t) q_down_ij q_up^kl d_k vt_i d_l theta_j, integrated by the same
    trapezoid: the viscous identity in transformed variables, the
    counterpart of PhysicalWeakForm."""

    def __init__(self, test):
        from mdflow.diagnostics import WeakFormAccumulator

        self.test = test
        self.inviscid = WeakFormAccumulator(test)
        self._viscous = _Trapezoid()

    def add(self, s):
        from mdflow.grid import pushforward
        from mdflow.motion import metric_at

        self.inviscid.add(s)
        g, m, t, theta = s.grid, s.motion, s.t, self.test.theta
        md = metric_at(m, t)
        vt = pushforward(m.forward_matrix(t), s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2)
        dvt = _gradients(g, *vt)
        dth = _gradients(g, theta.u1, theta.u2)
        term = sum(md.q_down[i, j] * md.q_up[k, el] * dvt[i][k] * dth[j][el]
                   for i in range(2) for j in range(2) for k in range(2) for el in range(2))
        self._viscous.add(t, s.nu * self.test.profile(t) * float(np.sum(term * g.cell_area)))

    def result(self):
        # the accumulator's signed defect, before its absolute value
        acc = self.inviscid
        return abs(acc._integral + self._viscous.integral - acc._init_pairing)


def minmod(a, b):
    """Reference for solver._minmod: the sign-and-magnitude form."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def muscl_tendency(g, omega, q_r, q_t, dirichlet):
    """Reference for solver._muscl_tendency: each one-sided difference built
    on its own, the periodic neighbours by np.roll."""
    half = g.n_theta // 2
    d_in = np.empty_like(omega)
    d_in[1:] = omega[1:] - omega[:-1]
    d_in[0] = omega[0] - np.roll(omega[0], half)
    d_out = np.empty_like(omega)
    d_out[:-1] = omega[1:] - omega[:-1]
    d_out[-1] = -2.0 * omega[-1] if dirichlet else d_in[-1]
    slope_r = minmod(d_in, d_out)
    up_state = omega[:-1] + 0.5 * slope_r[:-1]
    down_state = omega[1:] - 0.5 * slope_r[1:]
    face_r = np.where(q_r[1:-1] > 0.0, up_state, down_state)
    flux_r = np.zeros_like(q_r)
    flux_r[1:-1] = q_r[1:-1] * face_r

    d_minus = omega - np.roll(omega, 1, axis=1)
    d_plus = np.roll(omega, -1, axis=1) - omega
    slope_t = minmod(d_minus, d_plus)
    left = omega + 0.5 * slope_t
    right = np.roll(omega - 0.5 * slope_t, -1, axis=1)
    face_t = np.where(q_t > 0.0, left, right)
    flux_t = q_t * face_t

    div = (flux_r[1:] - flux_r[:-1]) + (flux_t - np.roll(flux_t, 1, axis=1))
    return -div / g.cell_area


def cfl_timestep(g, q_r, q_t, cfl_limit):
    """Reference for solver.cfl_timestep, with np.roll neighbours."""
    vel_r = np.zeros_like(q_r)
    lengths = g.edge_radii[:, None] * g.dtheta
    vel_r[1:] = np.abs(q_r[1:]) / lengths[1:]
    vel_t = np.abs(q_t) / g.dr
    rate_r = np.maximum(vel_r[:-1], vel_r[1:]) / g.dr
    rate_t = np.maximum(vel_t, np.roll(vel_t, 1, axis=1)) / (g.radii[:, None] * g.dtheta)
    rate = float(np.max(rate_r + rate_t))
    if rate == 0.0:
        return np.inf
    return cfl_limit / rate


class GradientWeakForm:
    """Reference for diagnostics.WeakFormAccumulator: the same transformed
    inviscid weak form with every gradient taken by grid.gradient (T rho
    included) and dy/dt from motion.material_velocity at the nodes, each
    term paired on its own."""

    def __init__(self, test):
        self.test = test
        self._time = _Trapezoid()
        self._init_pairing = None

    def add(self, s):
        from mdflow.grid import pushforward
        from mdflow.motion import material_velocity, metric_at

        test, g, m, t = self.test, s.grid, s.motion, s.t
        theta, area = test.theta, g.cell_area
        h, h_dot = test.profile(t), test.profile_dot(t)
        T, S_dot = m.forward_matrix(t), m.inverse_matrix_dt(t)
        qd = metric_at(m, t).q_down
        pts = np.stack([g.y1, g.y2], axis=-1).reshape(-1, 2)
        vel = material_velocity(m, pts, t).reshape(g.n_r, g.n_theta, 2)
        w1, w2 = pushforward(-T, vel[..., 0], vel[..., 1])

        def pair(a1, a2, b1, b2):
            return float(np.sum((qd[0, 0] * a1 * b1 + qd[0, 1] * (a1 * b2 + a2 * b1)
                                 + qd[1, 1] * a2 * b2) * area))

        def advect(a1, a2, grads):
            return a1 * grads[0] + a2 * grads[1]

        vt1, vt2 = pushforward(T, s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2)
        rt1, rt2 = pushforward(T, s.rho.u1, s.rho.u2)
        dtheta = _gradients(g, theta.u1, theta.u2)
        ts1, ts2 = pushforward(T @ S_dot, theta.u1, theta.u2)
        m1 = advect(w1, w2, dtheta[0]) + ts1
        m2 = advect(w1, w2, dtheta[1]) + ts2
        dvt = _gradients(g, vt1, vt2)
        drt = _gradients(g, rt1, rt2)
        n1 = (advect(rt1, rt2, dvt[0]) + advect(vt1, vt2, drt[0])
              + advect(vt1, vt2, dvt[0]))
        n2 = (advect(rt1, rt2, dvt[1]) + advect(vt1, vt2, drt[1])
              + advect(vt1, vt2, dvt[1]))
        v_theta = pair(vt1, vt2, theta.u1, theta.u2)
        val = (-h_dot * v_theta - h * pair(vt1, vt2, m1, m2)
               + h * pair(n1, n2, theta.u1, theta.u2))
        if self._init_pairing is None:
            self._init_pairing = h * v_theta
        self._time.add(t, val)

    def result(self):
        return abs(self._time.integral - self._init_pairing)
