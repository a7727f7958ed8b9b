"""Acceptance suite: every top-level criterion at its stated tolerance.

All scenarios run at the target resolution n_r = 128, n_theta = 256 and
are shared across criteria through session fixtures.  Each test prints a
`[criterion N] PASS/FAIL` line (visible with -s or in the captured log).
"""

from pathlib import Path

import numpy as np
import pytest

from mdflow.diagnostics import (R_SET, WeakFormAccumulator, make_test_field,
                                monotonicity_report, record)
from mdflow.grid import Grid, ScalarField, integrate
from mdflow.harness import Scenario, fit_residual_model, run_family
from mdflow.homogenize import homogenization
from mdflow.motion import (
    boundary_flux,
    boundary_normal,
    identity_motion,
    metric_at,
    rotating_ellipse_motion,
    stretch_motion,
    translation_motion,
)
from mdflow.solver import (
    boundary_tangency_residual,
    create_state,
    initial_condition,
    run,
)
from conftest import BUILTIN_PARAMS, builtin_motions
from oracles import (
    bessel_j01,
    boundary_point,
    ellipse_kappa,
    flux_circulation,
    map_backward,
    map_forward,
    numerical_rho,
    observed_order,
    physical_krylov_solve,
    radial_test_field,
    zeros,
)

N_R, N_THETA = 128, 256
EXACTNESS_FLOOR = 1e-8


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


class InstrumentedRun:
    """A scenario integrated once, with per-step norms and tangency."""

    def __init__(self, name, motion, omega0, nu, dt, t_final):
        self.name = name
        self.omega0 = omega0
        self.records = []
        self.tangency_sup = 0.0

        def observe(s):
            self.records.append(record(s))
            self.tangency_sup = max(self.tangency_sup, boundary_tangency_residual(s))

        state = create_state(motion, omega0, nu)
        self.final = run(state, dt, t_final, observer=observe)
        self.nu = nu
        self.grid = omega0.grid


@pytest.fixture(scope="session")
def grid128():
    return Grid(N_R, N_THETA)


@pytest.fixture(scope="session")
def bessel_run(grid128):
    m = identity_motion(horizon=2.0)
    w0 = initial_condition("bessel_mode", grid128)
    return InstrumentedRun("bessel_decay", m, w0, 0.01, 1e-3, 1.0)


@pytest.fixture(scope="session")
def radial_steady_run(grid128):
    m = identity_motion(horizon=2.0)
    w0 = initial_condition("bessel_mode", grid128)
    return InstrumentedRun("radial_steady", m, w0, 0.0, 2e-3, 1.0)


@pytest.fixture(scope="session")
def covariance_runs(grid128):
    w0 = initial_condition("offset_bump", grid128, amplitude=0.5,
                           center=(0.3, 0.0), radius=0.4)
    dt = 5e-4
    mi = identity_motion(horizon=1.0)
    mt = translation_motion(lambda t: np.array([t, 0.0]),
                            lambda t: np.array([1.0, 0.0]), horizon=1.0)
    fixed = InstrumentedRun("covariance_fixed", mi, w0, 0.0, dt, 0.5)
    moving = InstrumentedRun("covariance_moving", mt, w0, 0.0, dt, 0.5)
    return fixed, moving


@pytest.fixture(scope="session")
def ellipse_run(grid128):
    m = rotating_ellipse_motion(np.sqrt(2.0), lambda t: t, lambda t: 1.0,
                                horizon=1.0)
    w0 = initial_condition("offset_bump", grid128, center=(0.0, 0.0), radius=0.7)
    return InstrumentedRun("ellipse_spin", m, w0, 0.01, 2.5e-3, 0.25)


@pytest.fixture(scope="session")
def stretch_family(grid128):
    m = stretch_motion(lambda t: 0.2 * t, lambda t: 0.2, horizon=1.0)
    w0 = initial_condition("offset_bump", grid128, center=(0.0, 0.0), radius=0.7)
    scenario = Scenario("stretch_family", m, w0, 0.4)
    report_ = run_family(scenario, [1e-2, 1e-3, 1e-4], 2e-3)
    return scenario, report_


def test_criterion_1_geometry_suite():
    """det = 1 exactly, round-trip < 1e-12, flux circulation < 1e-10,
    metric inverse < 1e-12, on a 32x32x16 lattice for all four motions."""
    xs = np.linspace(-0.7, 0.7, 32)
    pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    times = np.linspace(0.0, 1.0, 16)
    worst = {"det": 0.0, "rt": 0.0, "circ": 0.0, "metric": 0.0}
    for m in builtin_motions().values():
        for t in times:
            y = map_forward(m, pts, t)
            worst["rt"] = max(worst["rt"], float(np.max(np.abs(map_backward(m, y, t) - pts))))
            worst["det"] = max(worst["det"],
                               abs(np.linalg.det(m.forward_matrix(t)) - 1.0))
            worst["circ"] = max(worst["circ"], abs(flux_circulation(m, t, n=64)))
            md = metric_at(m, t)
            worst["metric"] = max(worst["metric"],
                                  float(np.max(np.abs(md.q_up @ md.q_down - np.eye(2)))))
    ok = (worst["det"] < 1e-13 and worst["rt"] < 1e-12
          and worst["circ"] < 1e-10 and worst["metric"] < 1e-12)
    report(1, ok, f"geometry suite worst errors {worst}")


def test_criterion_2_homogenization_suite():
    """Analytic boundary residual < 1e-10 at 256 points; the closed-form rho
    that runs use and the independent numerical rho, a pulled-back Neumann
    solve by the physical-space reference in oracles.py, either agree at
    second order or sit at the exactness floor (built-in extensions are
    polynomial), with the order of that Neumann solve demonstrated on a
    non-polynomial mode-3 problem."""
    worst_bnd = 0.0
    for kind, m in builtin_motions().items():
        t = 0.4
        theta = np.arange(256) * 2 * np.pi / 256
        x = boundary_point(m, theta, t)
        n = boundary_normal(m, theta, t)
        g = boundary_flux(m, theta, t)
        p = BUILTIN_PARAMS[kind]
        if kind == "identity":
            rho = np.zeros_like(x)
        elif kind == "translation":
            rho = np.broadcast_to(np.asarray(p["c_dot"](t), dtype=float), x.shape)
        elif kind == "stretch":
            ad = p["a_dot"](t)
            rho = ad * np.stack([x[:, 0], -x[:, 1]], axis=-1)
        else:
            kap = ellipse_kappa(p["a_x"], p["phi_dot"](t))
            phi = p["phi"](t)
            c, s = np.cos(phi), np.sin(phi)
            b1 = c * x[:, 0] + s * x[:, 1]
            b2 = -s * x[:, 0] + c * x[:, 1]
            rho = np.stack([c * kap * b2 - s * kap * b1,
                            s * kap * b2 + c * kap * b1], axis=-1)
        worst_bnd = max(worst_bnd, float(np.max(np.abs(np.sum(rho * n, -1) - g))))
    bnd_ok = worst_bnd < 1e-10

    grids = {n: Grid(n, 2 * n) for n in (32, 64, 128)}
    order_ok = True
    details = []
    for kind, m in builtin_motions().items():
        errs = []
        for n in (32, 64, 128):
            g = grids[n]
            ana, _ = homogenization(m, 0.4, g)
            num = numerical_rho(m, 0.4, g)
            errs.append(max(np.max(np.abs(ana.u1 - num.u1)),
                            np.max(np.abs(ana.u2 - num.u2))))
        if max(errs) < EXACTNESS_FLOOR:
            details.append(f"{kind}: exact ({max(errs):.1e})")
        else:
            orders = observed_order(errs)
            order_ok &= bool(np.all(orders > 1.8) and np.all(orders < 2.2))
            details.append(f"{kind}: orders {np.round(orders, 2)}")
    # non-polynomial supplement: mode-3 Neumann solution r^3 cos(3theta)
    errs3 = []
    for n in (32, 64, 128):
        g = grids[n]
        sol, _ = physical_krylov_solve(np.eye(2), zeros(g), "neumann",
                                       flux=lambda th: 3 * np.cos(3 * th))
        r = np.sqrt(g.y1 ** 2 + g.y2 ** 2)
        th = np.arctan2(g.y2, g.y1)
        exact = r ** 3 * np.cos(3 * th)
        exact -= np.sum(exact * g.cell_area) / np.sum(g.cell_area)
        errs3.append(np.max(np.abs(sol - exact)))
    orders3 = observed_order(errs3)
    order_ok &= bool(np.all(orders3 > 1.8) and np.all(orders3 < 2.2))
    details.append(f"mode-3 orders {np.round(orders3, 2)}")
    report(2, bnd_ok and order_ok,
           f"boundary residual {worst_bnd:.2e}; " + "; ".join(details))


def test_criterion_3_bessel_eigenmode(bessel_run):
    """Enstrophy decay rate within 1% of 2 nu j01^2, final field within 1%."""
    g = bessel_run.grid
    l2_start = bessel_run.records[0].lr_norms[2.0]
    l2_end = bessel_run.records[-1].lr_norms[2.0]
    t_span = bessel_run.records[-1].t - bessel_run.records[0].t
    rate = -np.log((l2_end / l2_start) ** 2) / t_span
    target = 2 * 0.01 * bessel_j01() ** 2
    rate_ok = abs(rate / target - 1.0) < 0.01

    decay = np.exp(-0.01 * bessel_j01() ** 2 * t_span)
    err = integrate(ScalarField(g, bessel_run.final.omega.values
                                - decay * bessel_run.omega0.values), 2)
    field_ok = err / integrate(bessel_run.omega0, 2) < 0.01
    report(3, rate_ok and field_ok,
           f"rate {rate:.6f} vs {target:.6f} "
           f"(rel {abs(rate / target - 1):.2e}); final rel L2 err "
           f"{err / integrate(bessel_run.omega0, 2):.2e}")


def test_criterion_4_radial_steady(radial_steady_run):
    """Inviscid radial data is steady: L2 drift < 1e-3 at t = 1 with MUSCL."""
    g = radial_steady_run.grid
    drift = integrate(ScalarField(g, radial_steady_run.final.omega.values
                                  - radial_steady_run.omega0.values), 2)
    report(4, drift < 1e-3, f"L2 drift {drift:.2e} < 1e-3")


def test_criterion_5_frame_covariance(covariance_runs):
    """Translation vs fixed disk: pulled-back fields agree to 5 h^2 |w0|."""
    fixed, moving = covariance_runs
    g = fixed.grid
    diff = integrate(ScalarField(g, fixed.final.omega.values
                                 - moving.final.omega.values), 2)
    bound = 5.0 * (1.0 / N_R) ** 2 * integrate(fixed.omega0, 2)
    report(5, diff < bound, f"L2 difference {diff:.2e} < {bound:.2e}")


def test_criterion_6_lr_monotonicity(bessel_run, ellipse_run, stretch_family):
    """Every viscous scenario: all four L^r norms are non-increasing at
    every accepted step."""
    failures = []
    for run_ in (bessel_run, ellipse_run):
        verdicts = monotonicity_report([rec.lr_norms for rec in run_.records])
        for r, v in verdicts.items():
            if not v.passed:
                failures.append(f"{run_.name} r={r} step {v.first_violation}")
    _, fam = stretch_family
    for member in fam.members:
        series = member.log.lr_series
        for r in R_SET:
            prev = series[0][r]
            for k, entry in enumerate(series[1:], start=1):
                if entry[r] > prev * (1 + 1e-10):
                    failures.append(f"stretch nu={member.nu} r={r} step {k}")
                    break
                prev = entry[r]
    report(6, not failures, f"violations: {failures or 'none'} "
           f"(scenarios: bessel, ellipse, 3 stretch members; r in {{1.5, 2, 4, inf}})")


def test_criterion_7_tangency(bessel_run, radial_steady_run, covariance_runs,
                              ellipse_run, stretch_family):
    """max |w.eta| on the boundary < 5 h^2 for every step of every scenario."""
    bound = 5.0 * (1.0 / N_R) ** 2
    worst = {
        bessel_run.name: bessel_run.tangency_sup,
        radial_steady_run.name: radial_steady_run.tangency_sup,
        covariance_runs[0].name: covariance_runs[0].tangency_sup,
        covariance_runs[1].name: covariance_runs[1].tangency_sup,
        ellipse_run.name: ellipse_run.tangency_sup,
    }
    _, fam = stretch_family
    for member in fam.members:
        worst[f"stretch nu={member.nu}"] = member.log.tangency_sup
    ok = all(v < bound for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    report(7, ok, f"bound {bound:.2e}; {detail}")


def test_criterion_8_vanishing_viscosity_family(stretch_family):
    """Uniform L^r bounds, strictly decreasing Cauchy differences, and the
    affine-in-nu inviscid weak residual fit with positive coefficients."""
    scenario, fam = stretch_family
    problems = []
    for r in R_SET:
        bound = integrate(scenario.omega0, r) + 1e-6
        if any(s > bound for s in fam.lr_sup[r]):
            problems.append(f"L^{r} sup {max(fam.lr_sup[r]):.8f} > {bound:.8f}")
    if not (fam.cauchy_l2[0] > fam.cauchy_l2[1] > 0):
        problems.append(f"cauchy not strictly decreasing: {fam.cauchy_l2}")
    A, B, rel = fit_residual_model(fam.nus, fam.weak_residuals)
    if not (A > 0 and B > 0 and rel < 0.2):
        problems.append(f"fit A={A:.3g} B={B:.3g} rel={rel:.3f}")
    report(8, not problems,
           f"cauchy {np.round(fam.cauchy_l2, 6).tolist()}, "
           f"fit |res| ~ {A:.3g} nu + {B:.3g} (rel err {rel:.3f}); "
           f"problems: {problems or 'none'}")


def test_criterion_9_weak_residual_refinement():
    """Definition-5.1 residual under simultaneous (h, dt) halving.  On the
    radial steady scenario the residual sits at the exactness floor (the
    symmetric terms cancel discretely), which satisfies the bound trivially;
    a non-symmetric inviscid scenario demonstrates the observed order >= 1."""
    mi = identity_motion(horizon=1.0)
    levels = ((32, 4e-3), (64, 2e-3), (128, 1e-3))
    radial_res = []
    bump_res = []
    for n_r, dt in levels:
        g = Grid(n_r, 2 * n_r)
        w0 = initial_condition("bessel_mode", g)
        s = create_state(mi, w0, 0.0)
        acc = WeakFormAccumulator(radial_test_field(g, 0.25))
        run(s, dt, 0.25, observer=acc.add)
        radial_res.append(acc.result())

        wb = initial_condition("offset_bump", g, amplitude=0.5,
                               center=(0.3, 0.0), radius=0.4)
        s = create_state(mi, wb, 0.0)
        acc = WeakFormAccumulator(make_test_field(g, 0.25))
        run(s, dt / 2, 0.25, observer=acc.add)
        bump_res.append(acc.result())
    scale = integrate(initial_condition("bessel_mode", Grid(32, 64)), 2)
    radial_ok = all(r < max(EXACTNESS_FLOOR * scale, 1e-10) for r in radial_res) or \
        bool(np.all(observed_order(radial_res) >= 1.0))
    orders = observed_order(bump_res)
    bump_ok = bool(np.all(orders >= 1.0))
    report(9, radial_ok and bump_ok,
           f"radial residuals {[f'{r:.1e}' for r in radial_res]} (floor); "
           f"bump residuals {[f'{r:.1e}' for r in bump_res]}, orders {np.round(orders, 2)}")


def test_criterion_10_determinism(tmp_path):
    """Repeated runs of one config produce byte-identical diagnostics CSVs."""
    from mdflow.cli import packaged_configs, parse_config, run as cli_run

    path = [p for p in packaged_configs() if "bessel" in p][0]
    cfg_text = Path(path).read_text()
    outs = []
    for tag in ("a", "b"):
        cfg = parse_config(cfg_text)
        cfg.t_final = 0.02   # shortened: determinism is about the pipeline
        cfg.out_dir = str(tmp_path / tag)
        cfg.snapshot_every = 10
        assert cli_run(cfg, quiet=True) == 0
        outs.append((tmp_path / tag / "bessel_decay_diagnostics.csv").read_bytes())
    snaps_equal = ((tmp_path / "a" / "bessel_decay_000010.mdf").read_bytes()
                   == (tmp_path / "b" / "bessel_decay_000010.mdf").read_bytes())
    report(10, outs[0] == outs[1] and snaps_equal,
           f"{len(outs[0])} CSV bytes identical; snapshots identical: {snaps_equal}")
