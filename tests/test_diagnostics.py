import tracemalloc

import numpy as np
import pytest

from mdflow.diagnostics import (
    CSV_COLUMNS,
    R_SET,
    DiagnosticsWriter,
    RunLog,
    WeakFormAccumulator,
    gnuplot_stub,
    make_test_field,
    record,
    record_to_row,
)
from mdflow.grid import Grid, integrate
from mdflow.motion import identity_motion, translation_motion
from mdflow.solver import create_state, initial_condition, run, step
from conftest import builtin_motions, custom_affine_motion
from oracles import (GradientWeakForm, PhysicalWeakForm, ViscousReferenceForm, observed_order,
                     radial_test_field, vector_from_function, zeros)


def test_record_zero_state():
    g = Grid(24, 48)
    s = create_state(identity_motion(), zeros(g), 0.01)
    rec = record(s)
    assert all(v == 0.0 for v in rec.lr_norms.values())
    assert rec.energy == 0.0
    assert rec.circulation == 0.0
    assert rec.bc_u_normal < 1e-12


def test_record_circulation_bessel():
    """Circulation of J0(j01 r): 2 pi J1(j01)/j01 by the Bessel integral."""
    from oracles import bessel_j01, bessel_j1
    j01 = bessel_j01()
    g = Grid(96, 64)
    s = create_state(identity_motion(), initial_condition("bessel_mode", g), 0.0)
    rec = record(s)
    exact = 2 * np.pi * float(bessel_j1(j01)) / j01
    assert rec.circulation == pytest.approx(exact, abs=1e-4)


def test_record_cz_ratio_grid_stable():
    """The measured gradient-to-vorticity norm ratio settles under refinement."""
    vals = []
    for n_r in (64, 128):
        g = Grid(n_r, 2 * n_r)
        s = create_state(identity_motion(), initial_condition("bessel_mode", g), 0.01)
        vals.append(record(s).cz_ratio[2.0])
    assert abs(vals[1] / vals[0] - 1.0) < 0.02


def test_record_boundary_flux_term_translation():
    """Moving-boundary energy production term against direct quadrature."""
    g = Grid(64, 128)
    m = translation_motion(lambda t: np.array([t, 0.0]),
                           lambda t: np.array([1.0, 0.0]), horizon=1.0)
    w0 = initial_condition("offset_bump", g, amplitude=0.5, center=(0.3, 0.0),
                           radius=0.4)
    s = create_state(m, w0, 0.0)
    rec = record(s)
    # direct quadrature: the Biot-Savart v on the boundary ring, g = cos(theta)
    from mdflow.grid import boundary_extrapolate
    v1 = boundary_extrapolate(g, s.v.u1)
    v2 = boundary_extrapolate(g, s.v.u2)
    direct = float(np.sum(0.5 * (v1 ** 2 + v2 ** 2) * np.cos(g.angles)) * g.dtheta)
    assert rec.boundary_flux_term == pytest.approx(direct, rel=1e-12)


def test_bc_residual_refines(motions):
    """max |u.eta - g| on the moving boundary shrinks at least at second
    order (evaluated at t = 0.5 where every metric is anisotropic; fields
    that are exact to round-off pass through the floor guard)."""
    for kind in ("identity", "translation", "stretch", "rotating_ellipse"):
        m = motions[kind]
        errs = []
        for n_r in (32, 64, 128):
            g = Grid(n_r, 2 * n_r)
            w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
            s = create_state(m, w0, 0.0, t=0.5)
            errs.append(record(s).bc_u_normal)
        if max(errs) < 1e-12:
            continue
        orders = observed_order(errs)
        assert np.all(orders > 1.5), (kind, errs)


def test_run_log_flags_a_norm_that_grows():
    """Equal norms from one state to the next pass; norms 1.001 times the
    last state's break monotonicity for every r at that step."""
    g = Grid(16, 32)
    s = create_state(identity_motion(), initial_condition("radial_poly", g), 0.01)
    norms = record(s).lr_norms
    log = RunLog()
    log(s, norms)
    log(s, norms)
    assert log.failures() == []
    log(s, {r: v * 1.001 for r, v in norms.items()})
    assert [f.split(" (")[0] for f in log.failures()] == [
        f"L^{r} monotonicity violated at step 2" for r in R_SET]


def test_monotonicity_on_viscous_run():
    g = Grid(48, 96)
    m = builtin_motions()["stretch"]
    s = create_state(m, initial_condition("offset_bump", g, center=(0, 0),
                                          radius=0.7), 0.01)
    log = RunLog()
    l2 = []

    def observe(state):
        norms = record(state).lr_norms
        log(state, norms)
        l2.append(norms[2.0])

    run(s, 2e-3, 30 * 2e-3, observer=observe)
    assert log.steps == 30 and log.failures() == []
    assert all(b < a for a, b in zip(l2, l2[1:]))  # strictly decreasing, not just bounded


@pytest.mark.parametrize("nu", [0.01, 0.0])
def test_run_log_counts_steps_and_checks_the_estimates(nu):
    """The log keeps the last state's norms, their sups and the tangency
    sup; its verdict checks monotonicity only when the run is viscous.  A
    state that doubles the norms of the one before it breaks monotonicity
    at its step."""
    g = Grid(16, 32)
    s = create_state(identity_motion(horizon=1.0), initial_condition("radial_poly", g), nu)
    log = RunLog()
    seen = []
    final = run(s, 0.01, 0.02, observer=lambda state: (
        log(state), seen.append(integrate(state.omega, R_SET))))
    assert log.steps == 2
    norms = seen[-1]
    assert log.lr_last == norms
    assert log.lr_sup == {r: max(n[r] for n in seen) for r in R_SET}
    assert log.failures() == []
    log(final, {r: 2 * v for r, v in norms.items()})
    assert log.steps == 3 and log.lr_sup == {r: 2 * v for r, v in norms.items()}
    log.tangency_sup = 1.0
    failures = log.failures()
    assert failures[0] == f"tangency residual 1.000e+00 exceeds {5 / 16 ** 2:.3e}"
    if nu > 0:
        assert [f.split(" at ")[0] for f in failures[1:]] == [
            f"L^{r} monotonicity violated" for r in (1.5, 2.0, 4.0, np.inf)]
        assert all("at step 3 (ratio 2.000000000000)" in f for f in failures[1:])
    else:
        assert len(failures) == 1


def test_run_log_holds_no_more_memory_for_ten_times_the_states():
    """The log keeps running values, not a series: fed the same 16x32 state
    ten times as often, it holds no more memory (tracemalloc)."""
    g = Grid(16, 32)
    s = create_state(identity_motion(), initial_condition("radial_poly", g), 0.01)
    RunLog()(s)                    # fills what the first call caches

    def held(n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = RunLog()
            for _ in range(n):
                log(s)
            assert log.steps == n - 1
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert held(3000) <= held(300)    # past 256, so both counts are int objects


def test_weak_residual_zero_solution():
    g = Grid(24, 48)
    m = identity_motion(horizon=1.0)
    s = create_state(m, zeros(g), 0.0)
    acc = WeakFormAccumulator(radial_test_field(g, 0.2))
    run(s, 0.05, 0.2, observer=acc.add)
    assert acc.result() < 1e-14


def test_weak_residual_requires_tangent_field():
    from mdflow.diagnostics import TestField
    g = Grid(24, 48)
    bad = TestField(
        theta=vector_from_function(g, lambda y1, y2: (0 * y1, 1 + 0 * y1)),
        t_final=0.1,
    )
    with pytest.raises(ValueError, match="tangent"):
        WeakFormAccumulator(bad)


def test_weak_residual_refines_with_viscous_term():
    """Definition-4.1-style physical pairing with the viscosity term."""
    m = identity_motion(horizon=1.0)
    res = []
    for n_r, dt in ((24, 4e-3), (48, 2e-3)):
        g = Grid(n_r, 2 * n_r)
        s = create_state(m, initial_condition("bessel_mode", g), 0.01)
        acc = PhysicalWeakForm(radial_test_field(g, 0.2))
        run(s, dt, 0.2, observer=acc.add)
        res.append(acc.result())
    assert observed_order(res)[0] > 1.0


def test_weak_residual_pairings_agree():
    """Transformed and physical pairings must agree under the change of
    variables; disagreement beyond O(h^2) would flag an implementation gap.
    For affine maps the two discrete forms are algebraically identical
    (the metric pairing of pushforwards is pointwise the physical dot
    product), so the gap sits at round-off."""
    for kind in ("stretch", "rotating_ellipse"):
        m = builtin_motions()[kind]
        g = Grid(32, 64)
        w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
        s = create_state(m, w0, 0.01)
        test = make_test_field(g, 0.1)
        ref = ViscousReferenceForm(test)
        phys = PhysicalWeakForm(test)
        run(s, 2e-3, 0.1,
            observer=lambda state: (ref.add(state), phys.add(state)))
        r_ref, r_phys = ref.result(), phys.result()
        assert abs(r_ref - r_phys) < 30.0 / 32 ** 2
        assert abs(r_ref - r_phys) < 1e-12


@pytest.mark.parametrize("kind", ["translation", "stretch", "rotating_ellipse", "plug-in"])
def test_weak_residual_matches_the_gradient_form(kind):
    """The closed-form grad (T rho), the affine dy/dt and the stacked
    pairings give the weak residual of the form that takes every gradient
    on the grid, to 1e-10 relative."""
    m = custom_affine_motion() if kind == "plug-in" else builtin_motions()[kind]
    g = Grid(24, 48)
    w0 = initial_condition("offset_bump", g, center=(0.1, -0.2), radius=0.6)
    test = make_test_field(g, 0.1)
    acc, ref = WeakFormAccumulator(test), GradientWeakForm(test)
    run(create_state(m, w0, 0.01), 5e-3, 0.1,
        observer=lambda state: (acc.add(state), ref.add(state)))
    assert acc.result() == pytest.approx(ref.result(), rel=1e-10, abs=0.0)


def test_csv_columns_and_determinism(tmp_path):
    g = Grid(24, 48)
    s = create_state(identity_motion(), initial_condition("bessel_mode", g), 0.01)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        with DiagnosticsWriter(path) as w:
            w.write(record(s))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header == ("t,l1p5,l2,l4,linf,gv1p5,gv2,gv4,cz2,energy,bflux,"
                      "bc_un,bc_omega,circulation")


def test_streaming_writer_matches_batch(tmp_path):
    g = Grid(16, 32)
    s = create_state(identity_motion(horizon=1.0),
                     initial_condition("radial_poly", g), 0.01)
    recs = [record(s)]
    for _ in range(3):
        s = step(s, 1e-2)
        recs.append(record(s))
    stream = tmp_path / "stream.csv"
    with DiagnosticsWriter(stream) as w:
        for r in recs:
            w.write(r)
    rows = [",".join(CSV_COLUMNS)] + [record_to_row(r) for r in recs]
    assert stream.read_bytes() == "".join(row + "\n" for row in rows).encode()


def test_gnuplot_stub(tmp_path):
    out = tmp_path / "plot.gp"
    gnuplot_stub(str(tmp_path / "diag.csv"), out)
    text = out.read_text()
    assert "plot 'diag.csv'" in text and str(tmp_path) not in text


def test_energy_conserved_identity_inviscid():
    """No moving boundary, no viscosity: energy drift stays below 1e-3."""
    g = Grid(64, 128)
    m = identity_motion(horizon=2.0)
    w0 = initial_condition("offset_bump", g, center=(0.3, 0.0), radius=0.4)
    s = create_state(m, w0, 0.0)
    e0 = record(s).energy
    s = run(s, 1e-3, 1.0)
    assert abs(record(s).energy - e0) / e0 < 1e-3
