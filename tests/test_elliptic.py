import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from mdflow import elliptic
from mdflow.elliptic import (
    EllipticError,
    Spectrum,
    apply_operator,
    coerce_metric,
    solve_dirichlet,
    solve_helmholtz,
    solve_modes,
)
from mdflow.grid import Grid, ScalarField, integrate
from mdflow.motion import metric_at, rotating_ellipse_motion
from oracles import (
    bessel_j0,
    bessel_j01,
    observed_order,
    physical_apply_operator,
    physical_krylov_solve,
    scalar_from_function,
    thomas_solve_modes,
    zeros,
)

I2 = np.eye(2)
J01 = bessel_j01()


def radial(grid):
    return np.sqrt(grid.y1 ** 2 + grid.y2 ** 2)


def smooth_random_rhs(grid, seed=0):
    """Random combination of low harmonics: smooth and reproducible."""
    rng = np.random.default_rng(seed)
    r = radial(grid)
    th = np.arctan2(grid.y2, grid.y1)
    vals = np.zeros_like(r)
    for m in range(5):
        a, b = rng.normal(size=2)
        vals += (a * np.cos(m * th) + b * np.sin(m * th)) * np.exp(-2 * r ** 2) * r ** m
    return ScalarField(grid, vals)


def lifted(q, rhs, data):
    """rhs less the oracle's lift of the boundary values f(1, theta) = data,
    what they add to the physical stencil on the last ring: the homogeneous
    Dirichlet solve of the result solves with that data."""
    b = rhs.values.copy()
    b[-1] -= physical_apply_operator(q, zeros(rhs.grid), "dirichlet", boundary=data)[-1]
    return ScalarField(rhs.grid, b)


def test_coerce_metric_validation():
    with pytest.raises(ValueError):
        coerce_metric(np.array([[1.0, 2.0], [0.0, 1.0]]))   # not symmetric
    with pytest.raises(ValueError):
        coerce_metric(np.diag([1.0, -2.0]))                 # not positive definite
    q = coerce_metric(np.diag([2.0, 0.5]))
    assert q.shape == (2, 2)
    # positive definite however wide its spread: an eigensolver flushes 1e-300 to 0
    thin = np.diag([1e-300, 1e300])
    assert np.array_equal(coerce_metric(thin), thin)


@pytest.mark.parametrize("q,f_fn,expected", [
    (I2, lambda a, b: 1.0 - a * a - b * b, -4.0),
    (np.diag([4.0, 0.25]), lambda a, b: a * a, 8.0),
    (np.array([[2.0, 0.5], [0.5, 1.0]]), lambda a, b: a * b, 1.0),
    (I2, lambda a, b: 7.0 + 0.0 * a, 0.0),
])
def test_apply_exact_on_quadratics(q, f_fn, expected):
    """The stencil and its Dirichlet closure are exact on quadratics, so the
    Dirichlet solve of the constant q^{jk} d_j d_k f, less the oracle's lift
    of the boundary trace of f, gives f back, to the Krylov tolerance."""
    g = Grid(16, 32)
    f = scalar_from_function(g, f_fn)
    rhs = lifted(q, ScalarField(g, np.full_like(f.values, expected)),
                 lambda th: f_fn(np.cos(th), np.sin(th)))
    sol, _ = elliptic._solve(q, rhs, tol=1e-12, maxiter=500, what="solve_dirichlet")
    assert np.max(np.abs(sol - f.values)) < 1e-8


def test_apply_bessel_second_order():
    """Lap J0(j01 r) = -j01^2 J0 under the Dirichlet closure (J0(j01) = 0):
    an O(h^2) error on every ring but the last, where the one-sided closure
    leaves an O(h) one, so the area-weighted error is O(h^2) too."""
    interior, last, weighted = [], [], []
    for n_r in (32, 64, 128):
        g = Grid(n_r, 64)
        f = ScalarField(g, bessel_j0(J01 * radial(g)))
        out = apply_operator(I2, f)
        err = np.abs(out.values + J01 ** 2 * f.values) / J01 ** 2
        interior.append(np.max(err[:-1]))
        last.append(np.max(err[-1]))
        weighted.append(np.sum(err * g.cell_area))
    assert np.all(observed_order(interior) > 1.7)
    assert np.all(observed_order(weighted) > 1.7)
    assert np.all(observed_order(last) > 0.9)


def test_solve_dirichlet_quadratic_exact():
    g = Grid(32, 64)
    rhs = scalar_from_function(g, lambda y1, y2: -4.0 + 0 * y1)
    sol = solve_dirichlet(I2, rhs)
    exact = 1.0 - g.y1 ** 2 - g.y2 ** 2
    assert np.max(np.abs(sol.values - exact)) < 1e-12


def test_solve_dirichlet_bessel_oracle():
    """rhs = J0(j01 r) with zero boundary data gives -J0/j01^2."""
    errs = []
    for n_r in (32, 64, 128):
        g = Grid(n_r, 2 * n_r)
        r = radial(g)
        sol = solve_dirichlet(I2, ScalarField(g, bessel_j0(J01 * r)))
        errs.append(np.max(np.abs(sol.values + bessel_j0(J01 * r) / J01 ** 2)))
    orders = observed_order(errs)
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_solve_dirichlet_nonzero_boundary():
    """Harmonic data: zero rhs, boundary cos(2 theta) gives r^2 cos(2 theta)."""
    g = Grid(48, 96)
    sol = solve_dirichlet(I2, lifted(I2, zeros(g), lambda th: np.cos(2 * th)))
    exact = g.y1 ** 2 - g.y2 ** 2
    assert np.max(np.abs(sol.values - exact)) < 1e-11


def test_dirichlet_roundtrip_anisotropic():
    """The operator applied to its own solution reproduces the rhs."""
    q = np.diag([np.exp(-0.4), np.exp(0.4)])
    g = Grid(64, 128)
    rhs = smooth_random_rhs(g, seed=4)
    sol = solve_dirichlet(q, rhs)
    back = apply_operator(q, sol)
    rel = integrate(ScalarField(g, back.values - rhs.values), 2) / integrate(rhs, 2)
    assert rel < 1e-8


def test_anisotropic_dirichlet_without_boundary_skips_affine_split(monkeypatch):
    """The first operator application is a Krylov matvec, after the
    preconditioner has run once.  The solution bytes match the solve of the
    right side less the oracle's lift of an all-zero boundary profile,
    which is zero."""
    q = np.diag([np.exp(-0.4), np.exp(0.4)])
    g = Grid(32, 64)
    rhs = smooth_random_rhs(g, seed=4)
    with_zero_boundary = solve_dirichlet(q, lifted(q, rhs, np.zeros(g.n_theta)))

    calls = []
    for name in ("apply_operator", "solve_modes"):
        def counted(*args, _fn=getattr(elliptic, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(elliptic, name, counted)
    sol = solve_dirichlet(q, rhs)
    assert calls.index("solve_modes") == 0
    assert sol.values.tobytes() == with_zero_boundary.values.tobytes()


def test_fast_and_iterative_paths_agree():
    """Identity-metric solves via the transform path and the Krylov path."""
    g = Grid(64, 128)
    rhs = smooth_random_rhs(g, seed=11)
    fast = solve_dirichlet(I2, rhs)
    # nudge the metric off isotropy detection threshold to force iteration
    q = np.diag([1.0 + 1e-9, 1.0 - 1e-9])
    iterative = solve_dirichlet(q, rhs)
    diff = np.max(np.abs(fast.values - iterative.values))
    assert diff < 1e-9


def test_aniso_dirichlet_manufactured_convergence():
    q = np.diag([np.exp(-0.4), np.exp(0.4)])
    errs = []
    for n_r in (32, 64, 128):
        g = Grid(n_r, 2 * n_r)
        r2 = g.y1 ** 2 + g.y2 ** 2
        exact = (1 - r2) * np.exp(g.y1)
        rhs_exact = (q[0, 0] * (1 - r2 - 4 * g.y1 - 2) - 2 * q[1, 1]) * np.exp(g.y1)
        sol = solve_dirichlet(q, ScalarField(g, rhs_exact))
        errs.append(np.max(np.abs(sol.values - exact)))
    orders = observed_order(errs)
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_helmholtz_identity_shift_zero():
    g = Grid(24, 48)
    rhs = smooth_random_rhs(g, seed=8)
    sol = solve_helmholtz(I2, rhs, 0.0)
    assert np.max(np.abs(sol.values - rhs.values)) < 1e-12


@pytest.mark.parametrize("q", [I2, np.diag([0.5, 2.0])])
def test_helmholtz_residual(q):
    g = Grid(48, 96)
    rhs = smooth_random_rhs(g, seed=9)
    shift = 1e-4
    sol = solve_helmholtz(q, rhs, shift)
    back = sol.values - shift * apply_operator(q, sol).values
    assert np.max(np.abs(back - rhs.values)) < 1e-9


def test_iterative_failure_reports_residual():
    g = Grid(16, 32)
    rhs = smooth_random_rhs(g, seed=1)
    q = np.diag([1e-3, 1.0])  # extreme anisotropy, tiny budget
    with pytest.raises(EllipticError, match="residual"):
        elliptic._solve(q, rhs, tol=1e-10, maxiter=3, what="solve_dirichlet")


MODE_CASES = {
    "dirichlet_boundary": dict(lap_coeff=1.3, boundary=True),
    "helmholtz": dict(lap_coeff=-0.01, alpha=1.0),
}


@pytest.mark.parametrize("case", sorted(MODE_CASES))
@pytest.mark.parametrize("n_r,n_theta", [(8, 16), (16, 32), (37, 74), (128, 256), (129, 258)])
def test_solve_modes_matches_thomas_reference(case, n_r, n_theta):
    """Homogeneous cases call solve_modes; boundary data goes through the
    oracle's lift and the fast path of elliptic._solve at q = lap_coeff I.
    Odd and non-power-of-two radii leave a level with one even row more
    than odd ones, and 8 radii go to the tail alone."""
    g = Grid(n_r, n_theta)
    rng = np.random.default_rng(n_r)
    rhs = rng.normal(size=(n_r, n_theta))
    kwargs = dict(MODE_CASES[case])
    if not kwargs.pop("boundary", False):
        got = solve_modes(g, rhs, **kwargs)
        want = thomas_solve_modes(g, rhs, **kwargs)
    else:
        data = rng.normal(size=n_theta)
        want = thomas_solve_modes(g, rhs, boundary=data, **kwargs)
        q = kwargs["lap_coeff"] * I2
        got, report = elliptic._solve(q, lifted(q, ScalarField(g, rhs), data),
                                      alpha=kwargs.get("alpha", 0.0), tol=1e-10, maxiter=500,
                                      what=case)
        assert report.applications == 0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


FACTOR_CASES = [(1.3, 0.0), (0.25, 0.0),                          # solve_dirichlet
                (-0.01, 1.0), (-0.0, 1.0), (-40.0, 1.0)]        # solve_helmholtz


@pytest.mark.parametrize("n_r,n_theta", [(16, 32), (37, 74), (128, 256)])
@pytest.mark.parametrize("lap_coeff,alpha", FACTOR_CASES,
                         ids=[f"{lap}-{alpha}-dirichlet" for lap, alpha in FACTOR_CASES])
def test_every_system_the_solvers_build_takes_the_symmetric_factor(n_r, n_theta, lap_coeff,
                                                                   alpha):
    """Poisson (lap_coeff = c > 0) and Helmholtz (alpha = 1, lap_coeff =
    -shift c <= 0) systems with the Dirichlet closure are positive definite
    once their rows are weighted: every pivot of their cyclic reduction,
    one per radius and mode, has the sign of alpha - lap_coeff."""
    levels = elliptic._mode_factor(Grid(n_r, n_theta), lap_coeff, alpha)
    inverse_pivots = [level[1] for level in levels]
    assert sum(inv.shape[0] for inv in inverse_pivots) == n_r
    for inv in inverse_pivots:
        assert inv.shape[1] == n_theta // 2 + 1
        assert np.all(np.sign(alpha - lap_coeff) * inv.real > 0)


@pytest.mark.parametrize("lap_coeff,alpha", [(0.0, 0.0), (1.0, 1.0)])
def test_a_zero_or_wrong_signed_pivot_raises_before_it_divides(lap_coeff, alpha):
    """A singular system (zero pivots) raises EllipticError with no
    divide-by-zero RuntimeWarning first, and so does alpha = lap_coeff,
    whose pivots must then be positive (test_indefinite_systems_are_rejected
    takes alpha > lap_coeff)."""
    g = Grid(16, 32)
    rhs = smooth_random_rhs(g, seed=5).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EllipticError, match="not positive definite"):
            solve_modes(g, rhs, lap_coeff=lap_coeff, alpha=alpha)


def test_indefinite_systems_are_rejected():
    """alpha and lap_coeff of one sign, alpha above lap_coeff times the
    smallest Dirichlet eigenvalue j01^2, make the radial blocks indefinite:
    solve_modes raises EllipticError, and solve_helmholtz refuses the
    negative shift that would build one."""
    g = Grid(16, 32)
    rhs = smooth_random_rhs(g, seed=5)
    with pytest.raises(EllipticError, match="not positive definite"):
        solve_modes(g, rhs.values, lap_coeff=0.7, alpha=5.0)
    with pytest.raises(ValueError, match="shift must be nonnegative"):
        solve_helmholtz(I2, rhs, -0.01)


def test_solve_modes_cache_hit_is_bitwise_cold_solve():
    g = Grid(24, 48)
    rhs = smooth_random_rhs(g, seed=3).values
    elliptic._mode_factor.cache_clear()
    cold = solve_modes(g, rhs, lap_coeff=-0.02, alpha=1.0)
    warm = solve_modes(g, rhs, lap_coeff=-0.02, alpha=1.0)
    assert elliptic._mode_factor.cache_info().hits == 1
    assert warm.tobytes() == cold.tobytes()


def test_solve_modes_cache_stays_bounded():
    g = Grid(16, 32)
    rhs = smooth_random_rhs(g, seed=4).values
    for k in range(50):
        solve_modes(g, rhs, lap_coeff=1.0 + 0.01 * k)
    assert elliptic._mode_factor.cache_info().currsize <= 4


ELLIPSE = rotating_ellipse_motion(np.sqrt(2.0), lambda t: t, lambda t: 1.0, 10.0)
METRICS = {
    "general": np.array([[1.3, 0.4], [0.4, 0.7]]),
    "stretch": np.diag([np.exp(-0.4), np.exp(0.4)]),
    "near_isotropic": np.diag([1.0 + 1e-9, 1.0 - 1e-9]),
}


def rough_field(g, seed):
    """Random nodal values with a full-strength Nyquist mode on every ring."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(g.n_r, g.n_theta)) \
        + rng.normal(size=(g.n_r, 1)) * (-1.0) ** np.arange(g.n_theta)


def test_pack_is_an_isometry():
    g = Grid(16, 32)
    v = rough_field(g, 0)
    x = elliptic._pack(v)
    assert x.size == 2 * (g.n_theta // 2 + 1) * g.n_r
    assert abs(np.linalg.norm(x) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)
    assert np.max(np.abs(elliptic._unpack(x, g.n_theta) - v)) < 1e-13


@pytest.mark.parametrize("bc", ["dirichlet"])
@pytest.mark.parametrize("metric", sorted(METRICS) + ["isotropic"])
@pytest.mark.parametrize("n_r,n_theta", [(16, 32), (128, 256)])
def test_operator_on_a_spectrum_matches_the_nodal_operator(n_r, n_theta, metric, bc):
    """The sparse mode-space stencil, on a Spectrum and on nodal values,
    reproduces the physical-space stencil with the homogeneous closure bc,
    Nyquist mode included."""
    g = Grid(n_r, n_theta)
    q = METRICS.get(metric, 2.0 * I2)
    v = rough_field(g, n_r)
    want = physical_apply_operator(q, ScalarField(g, v), bc)
    got = apply_operator(q, Spectrum(g, elliptic._pack(v)))
    assert got.grid == g
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.values - elliptic._pack(want))) <= 1e-14 * scale
    nodal = apply_operator(q, ScalarField(g, v))
    assert np.max(np.abs(nodal.values - want)) <= 1e-14 * scale


@pytest.mark.parametrize("bc", ["dirichlet"])
@pytest.mark.parametrize("metric", ["general", "stretch", "isotropic"])
@pytest.mark.parametrize("n_r,n_theta", [(16, 32), (128, 256)])
def test_boundary_lift_matches_the_stencil_on_a_zero_field(n_r, n_theta, metric, bc):
    """The oracle's lift, the physical stencil of a zero field with
    boundary values, lies on the last ring, and added to the library's
    homogeneous stencil of a field it gives the physical stencil of that
    field with those values (with the closure bc)."""
    g = Grid(n_r, n_theta)
    q = METRICS.get(metric, 2.0 * I2)
    data = np.random.default_rng(n_r).normal(size=n_theta)
    lift = physical_apply_operator(q, zeros(g), bc, boundary=data)
    assert np.max(np.abs(lift[:-1])) == 0.0
    f = ScalarField(g, rough_field(g, n_r))
    want = physical_apply_operator(q, f, bc, boundary=data)
    got = apply_operator(q, f).values
    got[-1] += lift[-1]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_solve_modes_on_a_spectrum_matches_the_nodal_solve(case):
    g = Grid(32, 64)
    v = rough_field(g, 5)
    kwargs = {k: val for k, val in MODE_CASES[case].items() if k != "boundary"}
    want = elliptic._pack(solve_modes(g, v, **kwargs))
    x = elliptic._pack(v)
    got = solve_modes(g, Spectrum(g, x), **kwargs).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(x, elliptic._pack(v))          # the right side is kept


def test_a_spectrum_takes_homogeneous_data_only():
    """The operator and the solves take the homogeneous closure only, on a
    Spectrum and on nodal values alike."""
    g = Grid(16, 32)
    v = rough_field(g, 1)
    for f in (Spectrum(g, elliptic._pack(v)), ScalarField(g, v)):
        with pytest.raises(TypeError):
            apply_operator(I2, f, boundary=1.0)
    with pytest.raises(TypeError):
        solve_modes(g, v, lap_coeff=1.0, boundary=np.ones(g.n_theta))
    with pytest.raises(TypeError):
        solve_dirichlet(I2, ScalarField(g, v), boundary=np.ones(g.n_theta))


def bump(g):
    return np.exp(-3.0 * ((g.y1 - 0.2) ** 2 + g.y2 ** 2))


@pytest.mark.parametrize("kind", ["dirichlet", "helmholtz"])
@pytest.mark.parametrize("q", [metric_at(ELLIPSE, 0.3).q_up, METRICS["stretch"]])
def test_solves_match_physical_space_oracle(kind, q):
    g = Grid(32, 64)
    if kind == "dirichlet":
        rhs = ScalarField(g, bump(g))
        got = solve_dirichlet(q, lifted(q, rhs, lambda th: np.cos(2 * th)))
        want, _ = physical_krylov_solve(q, rhs, kind, boundary=lambda th: np.cos(2 * th))
    else:
        rhs = ScalarField(g, bump(g))
        got = solve_helmholtz(q, rhs, 1e-3)
        want, _ = physical_krylov_solve(q, rhs, kind, shift=1e-3)
    assert np.max(np.abs(got.values - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_application_counts_match_oracle_on_the_ellipse(t):
    """On the packaged rotating ellipse the mode-space loop takes the same
    BiCGstab path as the physical-space one, to within one application."""
    g = Grid(64, 128)
    q = metric_at(ELLIPSE, t).q_up
    rhs = ScalarField(g, bump(g))
    for kind, kwargs in (("dirichlet", {}), ("helmholtz", dict(alpha=1.0, scale=-0.025))):
        _, report = elliptic._solve(q, rhs, tol=1e-10, maxiter=500, what=kind, **kwargs)
        _, want = physical_krylov_solve(q, rhs, kind, shift=0.025)
        assert abs(report.applications - want) <= 1
        assert report.residual <= 1e-10 and not report.fallback


@pytest.mark.parametrize("start", [None, "guess"])
@pytest.mark.parametrize("maxiter", [3, 500])
def test_bicgstab_runs_scipys_iteration(start, maxiter):
    """elliptic._bicgstab takes scipy's unpreconditioned BiCGstab steps: on
    a nonsymmetric system it makes the same operator applications and
    returns the same iterate, converged or cut off by maxiter."""
    from scipy.sparse.linalg import LinearOperator, bicgstab

    rng = np.random.default_rng(7)
    a = np.eye(60) + 0.3 * rng.normal(size=(60, 60)) / np.sqrt(60)
    b = rng.normal(size=60)
    x0 = None if start is None else rng.normal(size=60)
    counts = {}

    def counted(tag):
        def matvec(x):
            counts[tag] = counts.get(tag, 0) + 1
            return a @ x
        return matvec

    got = elliptic._bicgstab(counted("ours"), b, x0, 1e-12, maxiter)
    want, _ = bicgstab(LinearOperator((60, 60), matvec=counted("scipy"), dtype=float), b,
                       x0=x0, rtol=1e-12, atol=0.0, maxiter=maxiter)
    assert counts["ours"] == counts["scipy"]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_isotropic_solve_reports_no_applications():
    g = Grid(16, 32)
    _, report = elliptic._solve(2.0 * I2, ScalarField(g, bump(g)), tol=1e-10, maxiter=500,
                                what="solve_dirichlet")
    assert report == (0, 0.0, False)


@pytest.mark.parametrize("exponent", [40, 540, 700])
@pytest.mark.parametrize("kind", ["dirichlet", "helmholtz"])
def test_krylov_solve_is_independent_of_the_right_sides_size(kind, exponent):
    """Scaling the right side by 2^-k scales the solution by 2^-k bit for
    bit: BiCGstab's breakdown tests do not fire on a small right side, so
    no GMRES fallback runs, and a right side whose squares underflow
    (2^-540 and 2^-700 of a bump) is not taken for zero."""
    g = Grid(16, 32)
    q = np.array([[1.5, 0.2], [0.2, 0.8]])
    kwargs = {} if kind == "dirichlet" else dict(alpha=1.0, scale=-0.01)
    f = bump(g)
    vals, report = elliptic._solve(q, ScalarField(g, f), tol=1e-10, maxiter=500, what=kind,
                                   **kwargs)
    small, small_report = elliptic._solve(q, ScalarField(g, np.ldexp(f, -exponent)),
                                          tol=1e-10, maxiter=500, what=kind, **kwargs)
    assert np.array_equal(small, np.ldexp(vals, -exponent))
    assert small_report == report and not report.fallback


def test_each_application_is_one_apply_operator_and_one_solve_modes(monkeypatch):
    """The Krylov loop composes the two public building blocks on a
    Spectrum, so whatever observes them sees every operator application."""
    g = Grid(32, 64)
    calls = []
    for name in ("apply_operator", "solve_modes"):
        def counted(*args, _fn=getattr(elliptic, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(elliptic, name, counted)
    _, report = elliptic._solve(metric_at(ELLIPSE, 0.3).q_up, ScalarField(g, bump(g)),
                                tol=1e-10, maxiter=500, what="solve_dirichlet")
    assert report.applications > 0
    assert calls == ["solve_modes"] + ["apply_operator", "solve_modes"] * report.applications


@pytest.mark.parametrize("solve", ["dirichlet", "helmholtz"])
def test_callable_initial_guess_is_built_on_the_krylov_path_only(solve):
    """A zero-argument x0 is called once by an anisotropic solve, never by
    an isotropic one, and gives the solve a ScalarField guess would."""
    g = Grid(16, 32)
    rhs = ScalarField(g, bump(g))
    guess = ScalarField(g, 0.5 * bump(g))
    calls = []

    def build():
        calls.append(1)
        return guess

    def solve_from(q, x0):
        if solve == "dirichlet":
            return solve_dirichlet(q, rhs, x0=x0).values
        return solve_helmholtz(q, rhs, 0.01, x0=x0).values

    solve_from(2.0 * I2, build)
    assert calls == []
    q = metric_at(ELLIPSE, 0.3).q_up
    assert np.array_equal(solve_from(q, build), solve_from(q, guess))
    assert calls == [1]


def rough_bump(g):
    """The bump plus 1% white noise, which puts energy in every angular
    mode, the Nyquist one included."""
    noise = np.random.default_rng(0).normal(size=(g.n_r, g.n_theta))
    return ScalarField(g, bump(g) + 0.01 * noise)


def mode_space_matrix(q, g):
    """apply_operator on a Spectrum as a real sparse matrix, read off
    column by column from unit vectors, with the identity rows the Krylov
    loop gives the imaginary parts of modes 0 and N/2: rows and columns in
    the Spectrum's order, radius-major with each mode's real and
    imaginary parts side by side."""
    size = g.n_r * (g.n_theta + 2)
    identity_rows = np.arange(size).reshape(g.n_r, -1)[:, 1::g.n_theta].ravel()
    rows, cols, vals = [identity_rows], [identity_rows], [np.ones(identity_rows.size)]
    unit = np.zeros(size)
    for k in np.setdiff1d(np.arange(size), identity_rows):
        unit[k] = 1.0
        column = apply_operator(q, Spectrum(g, unit)).values
        unit[k] = 0.0
        hit = np.flatnonzero(column)
        rows.append(hit), cols.append(np.full(hit.size, k)), vals.append(column[hit])
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                     np.concatenate(cols))), shape=(size, size))


@pytest.mark.parametrize("n_r,n_theta", [(16, 32), (64, 128)])
def test_rough_data_dirichlet_solve_matches_a_direct_solve(n_r, n_theta):
    """On rough data the Krylov solution is the direct solution of the same
    mode-space operator to the solver tolerance, in few applications."""
    g = Grid(n_r, n_theta)
    q = metric_at(ELLIPSE, 0.3).q_up
    rhs = rough_bump(g)
    vals, report = elliptic._solve(q, rhs, tol=1e-10, maxiter=500, what="solve_dirichlet")
    want = elliptic._unpack(spsolve(mode_space_matrix(q, g),
                                    elliptic._pack(rhs.values)), n_theta)
    assert np.max(np.abs(vals - want)) <= 1e-9 * np.max(np.abs(want))
    assert np.array_equal(solve_dirichlet(q, rhs).values, vals)
    assert report.applications <= 40 and not report.fallback


def test_krylov_path_agrees_with_the_fast_path_near_isotropy():
    """Just off isotropy the preconditioner is nearly the operator's
    inverse on every mode, so the Krylov solve takes a few applications and
    lands on the fast path's solution."""
    g = Grid(64, 128)
    rhs = ScalarField(g, np.random.default_rng(0).normal(size=(g.n_r, g.n_theta)))
    vals, report = elliptic._solve(1.3 * I2 + np.diag([1e-9, -1e-9]), rhs, tol=1e-10,
                                   maxiter=500, what="solve_dirichlet")
    want = solve_dirichlet(1.3 * I2, rhs).values
    assert 0 < report.applications <= 5
    assert np.max(np.abs(vals - want)) <= 1e-8 * np.max(np.abs(want))
