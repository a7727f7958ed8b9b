import ctypes
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mdflow.diagnostics import monotonicity_report, record
from mdflow.elliptic import solve_helmholtz
from mdflow.grid import Grid, ScalarField, integrate
from mdflow.motion import identity_motion, translation_motion
from mdflow.solver import (
    BESSEL_J01,
    CFL_NUMBER,
    CFLError,
    _minmod,
    _muscl_tendency,
    biot_savart,
    boundary_tangency_residual,
    cfl_timestep,
    create_state,
    face_fluxes,
    initial_condition,
    mollify_initial,
    run,
    step_count,
    step,
)
from conftest import builtin_motions, custom_affine_motion
import oracles
from oracles import (advection_field, bessel_j0, bessel_j01, bessel_j1, curl, divergence,
                     full_grid_tangency_residual, zeros)

J01 = bessel_j01()


def test_bessel_constant_matches_series_root():
    """The packaged j01 equals the bisection root of the series J0."""
    assert abs(BESSEL_J01 - J01) < 1e-12
    assert abs(J01 - 2.404825557695773) < 1e-12


def polar_components(grid, v):
    th = np.arctan2(grid.y2, grid.y1)
    vr = np.cos(th) * v.u1 + np.sin(th) * v.u2
    vt = -np.sin(th) * v.u1 + np.cos(th) * v.u2
    return vr, vt


def test_biot_savart_zero():
    g = Grid(24, 48)
    m = identity_motion()
    psi, _, v = biot_savart(zeros(g), m, 0.0)
    assert np.max(np.abs(v.u1)) < 1e-13 and np.max(np.abs(v.u2)) < 1e-13


def test_biot_savart_solid_body():
    """Constant vorticity gives the solid rotation v_theta = w0 r / 2."""
    g = Grid(48, 96)
    m = identity_motion()
    w0 = 1.7
    psi, _, v = biot_savart(ScalarField(g, w0 * np.ones((48, 96))), m, 0.0)
    r = np.sqrt(g.y1 ** 2 + g.y2 ** 2)
    vr, vt = polar_components(g, v)
    assert np.max(np.abs(vt - w0 * r / 2)) < 1e-10
    assert np.max(np.abs(vr)) < 1e-12


def test_biot_savart_bessel_mode():
    """omega = J0(j01 r) gives v_theta = J1(j01 r)/j01 (series oracle)."""
    errs = []
    for n_r in (32, 64):
        g = Grid(n_r, 2 * n_r)
        m = identity_motion()
        r = np.sqrt(g.y1 ** 2 + g.y2 ** 2)
        psi, _, v = biot_savart(ScalarField(g, bessel_j0(J01 * r)), m, 0.0)
        _, vt = polar_components(g, v)
        errs.append(np.max(np.abs(vt - bessel_j1(J01 * r) / J01)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 2e-4


def test_biot_savart_velocity_divergence_free(motions):
    """div_x v equals div_y of the pushforward for unit-Jacobian maps, and
    the pushforward is exactly the reference perp-gradient of psi."""
    from mdflow.grid import VectorField
    for m in motions.values():
        g = Grid(48, 96)
        w = initial_condition("offset_bump", g, center=(0.0, 0.0), radius=0.7)
        psi, _, v = biot_savart(w, m, 0.5)
        T = m.forward_matrix(0.5)
        vt = VectorField(g, T[0, 0] * v.u1 + T[0, 1] * v.u2,
                         T[1, 0] * v.u1 + T[1, 1] * v.u2)
        assert integrate(divergence(vt), 2) < 1e-6
        # the chain-rule measurement carries its own O(h^2) truncation
        assert integrate(divergence(v, jac=T), 2) < 1e-3


def test_recovered_velocity_curl_matches_vorticity(motions):
    """curl u = curl v = omega: the homogenizing field carries no vorticity,
    so the single scalar represents both."""
    errs = []
    for n_r in (32, 64):
        g = Grid(n_r, 2 * n_r)
        m = motions["rotating_ellipse"]
        w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
        s = create_state(m, w0, 0.01, t=0.5)
        T = m.forward_matrix(0.5)
        back = curl(s.u_phys, jac=T)
        # the bump has a kink in derivatives at its support edge, so compare
        # away from the boundary ring in L2
        diff = ScalarField(g, back.values - s.omega.values)
        errs.append(integrate(diff, 2))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05 * integrate(initial_condition("offset_bump", Grid(64, 128),
                                                        center=(0, 0), radius=0.7), 2)


def test_advection_field_identity_is_velocity():
    g = Grid(32, 64)
    m = identity_motion()
    s = create_state(m, initial_condition("bessel_mode", g), 0.0)
    w = advection_field(s)
    assert np.max(np.abs(w.u1 - s.u_phys.u1)) < 1e-14
    assert np.max(np.abs(w.u2 - s.u_phys.u2)) < 1e-14


def test_advection_field_translation_cancels():
    """Zero vorticity in a translating disk: the domain carries the fluid."""
    g = Grid(32, 64)
    m = translation_motion(lambda t: np.array([t, 0.0]),
                           lambda t: np.array([1.0, 0.0]), horizon=1.0)
    s = create_state(m, zeros(g), 0.0)
    w = advection_field(s)
    assert np.max(np.abs(w.u1)) < 1e-12
    assert np.max(np.abs(w.u2)) < 1e-12


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_tangency_residual(kind):
    """The reference transport field is tangent to the unit circle."""
    m = builtin_motions()[kind]
    g = Grid(64, 128)
    w0 = initial_condition("offset_bump", g, center=(0.0, 0.0), radius=0.7)
    s = create_state(m, w0, 0.01)
    assert boundary_tangency_residual(s) < 5.0 / g.n_r ** 2


@pytest.mark.parametrize("kind", list(builtin_motions()) + ["custom"])
def test_tangency_residual_equals_full_grid_reference(kind):
    """Evaluating w on the three outer rings only gives the residual of the
    full-grid transport field bit for bit, at the start and after steps."""
    m = custom_affine_motion() if kind == "custom" else builtin_motions()[kind]
    for n_r, n_theta in ((16, 32), (24, 48)):
        g = Grid(n_r, n_theta)
        w0 = initial_condition("offset_bump", g, center=(0.2, -0.1), radius=0.6)
        s = create_state(m, w0, 0.0, t=0.3)
        for _ in range(3):
            assert boundary_tangency_residual(s) == full_grid_tangency_residual(s)
            s = step(s, 0.01)


def test_face_fluxes_conservative(motions):
    """Corner-stream fluxes telescope to zero around every cell exactly."""
    g = Grid(32, 64)
    for m in motions.values():
        s = create_state(m, initial_condition("offset_bump", g, center=(0, 0),
                                              radius=0.7), 0.01)
        q_r, q_t = face_fluxes(s)
        div = (q_r[1:] - q_r[:-1]) + (q_t - np.roll(q_t, 1, axis=1))
        assert np.max(np.abs(div)) < 1e-14
        assert np.max(np.abs(q_r[-1])) == 0.0  # no flux through the boundary


def test_minmod_equals_the_sign_form():
    """The min/max form gives the sign-and-magnitude values on every pair of
    signs, ties and exact zeros (up to the sign of a zero)."""
    vals = np.array([-2.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 2.5])
    a, b = np.meshgrid(vals, vals)
    assert np.array_equal(_minmod(a, b), oracles.minmod(a, b))


def _rough_advection_data(g, seed):
    """Vorticity half white noise and half small integers (ties and exact
    zeros in the differences), and fluxes of both signs with exact zeros,
    none through the origin or the boundary."""
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((g.n_r, g.n_theta))
    lattice = rng.random(omega.shape) < 0.5
    omega[lattice] = rng.integers(-2, 3, size=int(lattice.sum()))
    q_r = rng.standard_normal((g.n_r + 1, g.n_theta))
    q_t = rng.standard_normal((g.n_r, g.n_theta))
    for q in (q_r, q_t):
        q[rng.random(q.shape) < 0.2] = 0.0
    q_r[0] = q_r[-1] = 0.0
    return omega, q_r, q_t


@pytest.mark.parametrize("dirichlet", [False, True])
def test_muscl_tendency_equals_the_roll_form_on_rough_data(dirichlet):
    """The slice-built tendency equals the roll-built reference exactly,
    with either outer closure and rough data across the origin ghost."""
    g = Grid(10, 16)
    for seed in range(20):
        omega, q_r, q_t = _rough_advection_data(g, seed)
        got = _muscl_tendency(g, omega, q_r, q_t, dirichlet)
        assert np.array_equal(got, oracles.muscl_tendency(g, omega, q_r, q_t, dirichlet))


def test_cfl_timestep_equals_the_roll_form(motions):
    """The same largest admissible step, to the bit, on rough fluxes, on
    zero fluxes and on every built-in motion's own fluxes."""
    g = Grid(10, 16)
    state = create_state(identity_motion(), zeros(g), 0.0)
    for seed in range(20):
        _, q_r, q_t = _rough_advection_data(g, seed)
        assert cfl_timestep(state, q_r, q_t) == oracles.cfl_timestep(g, q_r, q_t, CFL_NUMBER)
    q_r, q_t = face_fluxes(state)
    assert cfl_timestep(state, q_r, q_t) == np.inf
    # the fastest cell is column 0, through its radial face and the angular
    # face it shares with the last column across the periodic seam
    q_r[3, 0], q_t[2, -1] = 1.0, 1.0
    assert cfl_timestep(state, q_r, q_t) == oracles.cfl_timestep(g, q_r, q_t, CFL_NUMBER)
    g = Grid(24, 48)
    for m in motions.values():
        s = create_state(m, initial_condition("offset_bump", g, center=(0.2, -0.1),
                                              radius=0.6), 0.0, t=0.3)
        q_r, q_t = face_fluxes(s)
        assert cfl_timestep(s, q_r, q_t) == oracles.cfl_timestep(g, q_r, q_t, CFL_NUMBER)


def test_bessel_mode_preset_matches_series_j0():
    g = Grid(64, 8)
    w = initial_condition("bessel_mode", g, amplitude=2.0)
    want = 2.0 * bessel_j0(J01 * g.radii)
    assert np.max(np.abs(w.values - want[:, None])) < 2e-15


def test_cfl_enforced():
    g = Grid(32, 64)
    m = identity_motion(horizon=10.0)
    s = create_state(m, initial_condition("bessel_mode", g), 0.0)
    with pytest.raises(CFLError) as err:
        step(s, 10.0)
    assert err.value.suggested_dt > 0


def test_radial_steady_state_preserved():
    """Radial vorticity is a steady Euler flow; MUSCL must not disturb it."""
    g = Grid(64, 128)
    m = identity_motion(horizon=2.0)
    w0 = initial_condition("bessel_mode", g)
    s = run(create_state(m, w0, 0.0), 2e-3, 0.5)
    drift = integrate(ScalarField(g, s.omega.values - w0.values), 2)
    assert drift < 1e-12


def test_bessel_eigenmode_decay():
    """Viscous decay of the first Dirichlet eigenmode at rate nu j01^2."""
    g = Grid(64, 128)
    m = identity_motion(horizon=2.0)
    nu = 0.01
    w0 = initial_condition("bessel_mode", g)
    s = run(create_state(m, w0, nu), 1e-3, 0.5)
    expected = np.exp(-nu * J01 ** 2 * 0.5)
    ratio = integrate(s.omega, 2) / integrate(w0, 2)
    assert abs(ratio / expected - 1.0) < 2e-3
    err = integrate(ScalarField(g, s.omega.values - expected * w0.values), 2)
    assert err / integrate(w0, 2) < 1e-3


def test_omega_boundary_trace_zero_when_viscous():
    g = Grid(48, 96)
    m = builtin_motions()["stretch"]
    s = create_state(m, initial_condition("offset_bump", g, center=(0, 0),
                                          radius=0.7), 0.01)
    for _ in range(5):
        s = step(s, 2e-3)
    from mdflow.grid import boundary_extrapolate
    trace = np.max(np.abs(boundary_extrapolate(g, s.omega.values)))
    assert trace < 1e-6


def test_frame_covariance_translation():
    """The translating-disk run equals the fixed-disk run on the reference grid."""
    g = Grid(48, 96)
    w0 = initial_condition("offset_bump", g, amplitude=0.5, center=(0.3, 0.0),
                           radius=0.4)
    dt = 1e-3
    mi = identity_motion(horizon=1.0)
    mt = translation_motion(lambda t: np.array([t, 0.0]),
                            lambda t: np.array([1.0, 0.0]), horizon=1.0)
    s1 = run(create_state(mi, w0, 0.0), dt, 0.2)
    s2 = run(create_state(mt, w0, 0.0), dt, 0.2)
    diff = integrate(ScalarField(g, s1.omega.values - s2.omega.values), 2)
    assert diff < 5.0 / g.n_r ** 2 * integrate(w0, 2)


def test_circulation_conserved_inviscid():
    g = Grid(48, 96)
    m = builtin_motions()["rotating_ellipse"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    s0 = create_state(m, w0, 0.0)
    circ0 = float(np.sum(s0.omega.values * g.cell_area))
    s = run(s0, 2e-3, 0.2)
    circ = float(np.sum(s.omega.values * g.cell_area))
    assert abs(circ - circ0) < 1e-13 * max(1.0, abs(circ0))


def test_lr_monotone_under_viscous_steps(motions):
    """Every L^r norm is non-increasing per step for nu > 0."""
    g = Grid(32, 64)
    for m in motions.values():
        w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
        s = create_state(m, w0, 0.01)
        prev = {r: integrate(s.omega, r) for r in (1.5, 2.0, 4.0, np.inf)}
        for _ in range(20):
            s = step(s, 2e-3)
            for r, p in prev.items():
                cur = integrate(s.omega, r)
                assert cur <= p * (1.0 + 1e-10)
                prev[r] = cur


def test_mollify_identity_at_zero():
    g = Grid(24, 48)
    w0 = initial_condition("disk_indicator", g)
    out = mollify_initial(w0, 0.0, identity_motion())
    assert np.array_equal(out.values, w0.values)


def test_mollify_eigenmode_decay():
    """Heat semigroup for time nu scales the Bessel mode by exp(-nu j01^2)."""
    g = Grid(64, 128)
    w0 = initial_condition("bessel_mode", g)
    out = mollify_initial(w0, 0.1, identity_motion())
    ratio = integrate(out, 2) / integrate(w0, 2)
    assert abs(ratio / np.exp(-0.1 * J01 ** 2) - 1.0) < 0.01


def test_mollify_indicator_monotone_and_convergent():
    """L^r norms never grow; the mollified data converges back as nu -> 0."""
    g = Grid(64, 128)
    w0 = initial_condition("disk_indicator", g)
    base = integrate(w0, 1.5)
    prev_gap = np.inf
    for nu in (0.1, 0.01, 0.001):
        out = mollify_initial(w0, nu, identity_motion())
        assert integrate(out, 1.5) <= base * (1 + 1e-12)
        gap = integrate(ScalarField(g, out.values - w0.values), 1.5)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.2 * base


def _count_helmholtz_solves(monkeypatch):
    from mdflow import solver as solver_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_helmholtz(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_helmholtz", counted)
    return calls


@pytest.mark.parametrize("nu,n_sub", [(0.01, 8), (0.1, 56), (1.0, 5575)])
def test_mollify_substep_count_holds_the_bias_bound(monkeypatch, nu, n_sub):
    """While exp(-nu j01^2) is above round-off the substep count keeps the
    backward-Euler bias on the slowest mode below 0.3%."""
    calls = _count_helmholtz_solves(monkeypatch)
    g = Grid(8, 16)
    mollify_initial(initial_condition("disk_indicator", g), nu, identity_motion())
    assert len(calls) == n_sub


@pytest.mark.parametrize("nu", [10.0, 1e4, 1e200, 1e300])
def test_mollify_substep_count_stops_at_round_off(monkeypatch, nu):
    """Past round-off the exact result is zero, so a few substeps that damp
    the slowest mode as far suffice; the bias bound alone asked for 557,421
    solves at nu = 10 and 5.6e11 at nu = 1e4, and its (j01^2 nu)^2 is an
    OverflowError from nu = 1e155 on."""
    calls = _count_helmholtz_solves(monkeypatch)
    g = Grid(16, 32)
    w0 = initial_condition("disk_indicator", g)
    out = mollify_initial(w0, nu, identity_motion())
    assert len(calls) <= 64
    assert np.max(np.abs(out.values)) <= 1e-15 * np.max(np.abs(w0.values))


def test_initial_condition_presets():
    g = Grid(32, 64)
    for name in ("bessel_mode", "radial_poly", "offset_bump", "disk_indicator"):
        f = initial_condition(name, g)
        f.check_finite()
    with pytest.raises(ValueError):
        initial_condition("vortex_sheet", g)
    bump = initial_condition("offset_bump", g, center=(0.3, 0.0), radius=0.4)
    far = (g.y1 - 0.3) ** 2 + g.y2 ** 2 > 0.16
    assert np.max(np.abs(bump.values[far])) == 0.0


def test_plugin_motion_full_step_path():
    """A plug-in stretch-shear-rotation-translation gets the closed-form
    homogenization and corner-stream fluxes, hence exact conservation and
    L^r monotonicity at every viscous step."""
    m = custom_affine_motion()
    g = Grid(24, 48)
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    s = create_state(m, w0, 0.01)
    q_r, q_t = face_fluxes(s)
    div = (q_r[1:] - q_r[:-1]) + (q_t - np.roll(q_t, 1, axis=1))
    assert np.max(np.abs(div)) < 1e-14
    assert np.max(np.abs(q_r[-1])) == 0.0
    circ0 = float(np.sum(s.omega.values * g.cell_area))
    records = [record(s)]
    for _ in range(4):
        s = step(s, 2e-3)
        records.append(record(s))
    s.omega.check_finite()
    circ = float(np.sum(s.omega.values * g.cell_area))
    assert abs(circ - circ0) < 1e-10
    assert boundary_tangency_residual(s) < 5.0 / g.n_r ** 2
    assert all(v.passed for v in monotonicity_report([r.lr_norms for r in records]).values())


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
def test_step_and_run_refuse_a_dt_that_is_not_positive(dt):
    """A NaN dt is refused here too, rather than failing later as a step
    outside the motion horizon."""
    g = Grid(8, 16)
    s = create_state(identity_motion(), initial_condition("bessel_mode", g), 0.01)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(s, dt)
    with pytest.raises(ValueError, match="dt must be positive"):
        run(s, dt, 0.1, observer=lambda state: pytest.fail("observer called"))


@pytest.mark.parametrize("t_final,dt,steps", [
    (0.075, 0.0025, 30), (0.3, 0.001, 300), (0.15, 0.0005, 300), (0.08, 0.002, 40),
    (0.1, 0.03, 4), (1e-12, 1e-3, 1), (0.0100000000005, 1e-3, 10), (0.0, 1e-3, 0),
])
def test_step_count_is_exact_on_round_horizons(t_final, dt, steps):
    """Horizons that are a whole number of steps up to round-off take that
    many steps; a shorter remainder is one more step, a sub-1e-9 one none."""
    assert step_count(0.0, t_final, dt) == steps


def _record_solves(monkeypatch):
    """(what, applications) of every elliptic solve, in call order."""
    from mdflow import elliptic

    solves = []
    solve = elliptic._solve

    def recorded(*args, **kwargs):
        vals, report = solve(*args, **kwargs)
        solves.append((kwargs["what"], report.applications))
        return vals, report

    monkeypatch.setattr(elliptic, "_solve", recorded)
    return solves


def _plain_start(monkeypatch):
    """Start every Krylov solve as a cold step would: psi from the last
    step's psi, the diffused vorticity from the advected one."""
    from mdflow import solver as solver_mod

    monkeypatch.setattr(solver_mod, "_stream_guess", lambda state, t: state.psi)
    monkeypatch.setattr(solver_mod, "_diffusion_guess", lambda state, advected, dt: advected)


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_extrapolated_guesses_cut_the_rotating_ellipses_krylov_work(monkeypatch):
    """From step 4 on, the Dirichlet solves of a rotating-ellipse run take at
    most 60% of the applications they take from the plain start, and the
    final vorticity moves only at the solver tolerance, and over 60 steps
    the counts stay low."""
    from conftest import builtin_motions

    g = Grid(64, 128)
    m = builtin_motions()["rotating_ellipse"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    dt, steps = 2.5e-3, 60
    finals, dirichlet = [], []
    for plain in (False, True):
        with monkeypatch.context() as mp:
            if plain:
                _plain_start(mp)
            solves = _record_solves(mp)
            finals.append(run(create_state(m, w0, 0.01), dt, steps * dt).omega.values)
        # create_state's Dirichlet solve, then a Helmholtz and a Dirichlet per step
        assert [what for what, _ in solves] == \
            ["solve_dirichlet"] + ["solve_helmholtz", "solve_dirichlet"] * steps
        dirichlet.append([n for what, n in solves[7:] if what == "solve_dirichlet"])
    assert sum(dirichlet[0]) <= 0.6 * sum(dirichlet[1])
    assert max(dirichlet[0][-10:]) <= 12
    assert _relative_gap(finals[0], finals[1]) <= 1e-8


def test_rotating_ellipse_krylov_work_stays_low_over_a_long_run(monkeypatch):
    """Over 300 steps at 64x128 the extrapolated stream-function guess,
    every angular mode included, keeps the Dirichlet solves at about six
    applications each.  With a stencil that drops the Nyquist mode, which
    the preconditioner keeps, the mean is 9.3, and 10.4 over the last 50."""
    from conftest import builtin_motions

    g = Grid(64, 128)
    m = builtin_motions()["rotating_ellipse"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    dt, steps = 2.5e-3, 300
    solves = _record_solves(monkeypatch)
    run(create_state(m, w0, 0.01), dt, steps * dt)
    dirichlet = [n for what, n in solves if what == "solve_dirichlet"]
    assert len(dirichlet) == steps + 1
    assert np.mean(dirichlet) <= 7.0
    assert np.mean(dirichlet[-50:]) <= 7.0


@pytest.mark.parametrize("kind", ["identity", "translation"])
def test_isotropic_steps_never_build_a_guess(kind, monkeypatch):
    """On the fast path the guesses are never built, and the states do not
    depend on the history a state keeps for them."""
    from conftest import builtin_motions
    from mdflow import solver as solver_mod

    def unexpected(*args):
        raise AssertionError("guess built on the isotropic fast path")

    monkeypatch.setattr(solver_mod, "_stream_guess", unexpected)
    monkeypatch.setattr(solver_mod, "_diffusion_guess", unexpected)
    g = Grid(16, 32)
    m = builtin_motions()[kind]
    w0 = initial_condition("offset_bump", g, center=(0.2, 0.0), radius=0.4)
    dt = 2e-3
    kept = fresh = create_state(m, w0, 0.01)
    for _ in range(4):
        kept = step(kept, dt)
        fresh = step(replace(fresh, psi_history=(), omega_star=None), dt)
    assert len(kept.psi_history) == 2 and kept.omega_star is not None
    for a, b in ((kept.omega.values, fresh.omega.values),
                 (kept.psi.values, fresh.psi.values),
                 (kept.u_phys.u1, fresh.u_phys.u1), (kept.u_phys.u2, fresh.u_phys.u2)):
        assert np.array_equal(a, b)


def test_resized_last_step_ends_on_t_and_matches_the_plain_start(monkeypatch):
    """A stretch run whose horizon is not a whole number of steps ends on T,
    extrapolating over the shorter last step at its actual times."""
    from conftest import builtin_motions

    g = Grid(32, 64)
    m = builtin_motions()["stretch"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    dt, t_final = 2e-3, 0.0237
    times = []
    warm = run(create_state(m, w0, 0.01), dt, t_final,
               observer=lambda s: times.append(s.t))
    assert len(times) == 13 and abs(times[-1] - t_final) <= 1e-15
    assert abs((times[-1] - times[-2]) - 1.7e-3) <= 1e-12
    with monkeypatch.context() as mp:
        _plain_start(mp)
        plain = run(create_state(m, w0, 0.01), dt, t_final)
    assert plain.t == warm.t
    assert _relative_gap(warm.omega.values, plain.omega.values) <= 1e-8
    assert _relative_gap(warm.psi.values, plain.psi.values) <= 1e-8


def test_a_step_too_short_to_move_t_leaves_the_guesses_well_defined():
    """A step below the float spacing of t repeats a time in the history;
    the next step's guesses neither divide by the zero time gap nor move
    the result beyond the solver tolerance."""
    from conftest import builtin_motions

    g = Grid(16, 32)
    m = builtin_motions()["stretch"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    s = step(create_state(m, w0, 0.01, t=0.5), 2e-3)
    same = step(s, 1e-20)
    assert same.t == s.t and same.psi_history[-1][0] == s.t
    got = step(same, 2e-3)
    want = step(replace(same, psi_history=(), omega_star=None), 2e-3)
    assert _relative_gap(got.omega.values, want.omega.values) <= 1e-8


def test_each_family_member_starts_with_an_empty_history(monkeypatch):
    """create_state starts every member clean: the second member's first
    step sees no history from the first member's last steps."""
    from conftest import builtin_motions
    from mdflow import solver as solver_mod
    from mdflow.harness import Scenario, run_family

    seen = []
    stepped = solver_mod.step

    def recorded(state, dt):
        seen.append((len(state.psi_history), state.omega_star is None))
        return stepped(state, dt)

    monkeypatch.setattr(solver_mod, "step", recorded)
    g = Grid(16, 32)
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    sc = Scenario("two", builtin_motions()["stretch"], w0, 4 * 2e-3)
    report = run_family(sc, [1e-2, 1e-3], 2e-3)
    assert not any(m.error for m in report.members)
    assert seen == [(0, True), (1, False), (2, False), (2, False)] * 2


def _is_glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (ValueError, AttributeError):
        return False


_TRANSLATION = """
scenario.id = faults
motion.kind = translation
motion.cx = t
motion.cy = 0
grid.n_r = {n_r}
grid.n_theta = {n_theta}
physics.nu = 0.0
physics.T = {T}
physics.dt = 0.0005
initial.preset = offset_bump
initial.amplitude = 0.5
initial.center = 0.3,0.0
initial.radius = 0.4
"""


@pytest.mark.skipif(not _is_glibc(), reason="the malloc policy is glibc's")
def test_steps_reuse_freed_pages(tmp_path):
    """With glibc's malloc thresholds set for the grid, a 128x256 inviscid
    translation run (step and record) faults in almost no fresh pages per
    step once it is under way; left at glibc's 128 KB start, every field
    temporary is a fresh mmap, several hundred faults a step.  A fresh process,
    because importing scipy, as a test process may have, raises glibc's
    threshold by itself."""
    import mdflow

    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    code = ("import resource, sys\n"
            "import mdflow.cli as cli, mdflow.solver as solver\n"
            "faults = []\n"
            "step = solver.step\n"
            "def counted(state, dt):\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
            "    return step(state, dt)\n"
            "solver.step = counted\n"
            "cfg = cli.parse_config(sys.argv[1])\n"
            "cfg.out_dir = sys.argv[2]\n"
            "assert cli.run(cfg, quiet=True) == 0\n"
            "faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
            "late = faults[5:]\n"
            "print(len(faults) - 1, (late[-1] - late[0]) / (len(late) - 1))\n")
    config = _TRANSLATION.format(n_r=128, n_theta=256, T=15 * 0.0005)
    out = subprocess.run([sys.executable, "-c", code, config, str(tmp_path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    steps, per_step = out.split()
    assert int(steps) == 15
    assert float(per_step) < 30


def test_malloc_thresholds_scale_with_the_grid(monkeypatch):
    """16 fields of float64, at least 4 MiB and at most glibc's 32 MiB cap;
    the heap trims past 4 times that."""
    from mdflow import solver as solver_mod

    calls = []

    class FakeLibc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    for n_r, n_theta, want in [(16, 32, 4 << 20), (128, 256, 4 << 20),
                               (256, 512, 16 << 20), (512, 1024, 32 << 20)]:
        calls.clear()
        solver_mod._keep_freed_pages(Grid(n_r, n_theta))
        assert calls == [(solver_mod._M_MMAP_THRESHOLD, want),
                         (solver_mod._M_TRIM_THRESHOLD, 4 * want)]


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr, loads", [
    (_unknown_name, 0),                 # macOS: no such confstr name
    (lambda name: None, 0),             # another C library
    (None, 0),                          # Windows: no os.confstr
    (lambda name: "glibc 2.36", 1),     # glibc, but no C library to load
])
def test_run_without_glibc_writes_the_same_bytes(tmp_path, monkeypatch, confstr, loads):
    """Where the libc lookup fails, the malloc policy is skipped quietly
    and a run writes the same diagnostics bytes as one with it."""
    from mdflow.cli import parse_config, run as run_config

    def csv(out_dir):
        cfg = parse_config(_TRANSLATION.format(n_r=16, n_theta=32, T=4 * 0.0005))
        cfg.out_dir = str(out_dir)
        assert run_config(cfg, quiet=True) == 0
        return (out_dir / "faults_diagnostics.csv").read_bytes()

    normal = csv(tmp_path / "normal")
    loaded = []

    def no_libc(name):
        loaded.append(name)
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    assert csv(tmp_path / "skipped") == normal
    assert len(loaded) == loads
