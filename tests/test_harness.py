import numpy as np
import pytest

from mdflow import harness
from mdflow.grid import Grid, ScalarField, integrate
from mdflow.harness import (
    Scenario,
    fit_residual_model,
    richardson_limit,
    run_family,
    write_family_report,
)
from mdflow.motion import identity_motion
from mdflow.solver import StepConfig, initial_condition
from conftest import builtin_motions


@pytest.fixture(scope="module")
def stretch_report():
    g = Grid(32, 64)
    m = builtin_motions()["stretch"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    sc = Scenario("stretch_small", m, w0, 0.2)
    return sc, g, run_family(sc, [1e-2, 1e-3, 1e-4], g, StepConfig(dt=2.5e-3))


def test_family_validates_viscosities():
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.1)
    with pytest.raises(ValueError):
        run_family(sc, [1e-3, 1e-2], g, StepConfig(dt=1e-3))
    with pytest.raises(ValueError):
        run_family(sc, [1e-2, 0.0], g, StepConfig(dt=1e-3))


def test_family_records_cfl_failure_as_failed_member():
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(10.0), initial_condition("offset_bump", g), 10.0)
    report = run_family(sc, [1e-2, 1e-3], g, StepConfig(dt=5.0))
    assert sorted(report.failures) == [1e-3, 1e-2]
    assert all(msg.startswith("CFLError") for msg in report.failures.values())
    assert all(m.failure is not None for m in report.members)


def test_family_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a member run")

    monkeypatch.setattr(harness, "_run_member", broken)
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.1)
    with pytest.raises(TypeError, match="bug in a member run"):
        run_family(sc, [1e-2, 1e-3], g, StepConfig(dt=1e-3))


def test_family_uniform_lr_bounds(stretch_report):
    """sup_t ||omega_nu||_r stays within ||omega_0||_r + 1e-6 for every nu."""
    sc, g, report = stretch_report
    for r, sups in report.lr_sup.items():
        bound = integrate(sc.omega0, r) + 1e-6
        assert all(s <= bound for s in sups), (r, sups, bound)


def test_family_cauchy_decreasing(stretch_report):
    sc, g, report = stretch_report
    assert len(report.cauchy_l2) == 2
    assert report.cauchy_l2[0] > report.cauchy_l2[1] > 0


def test_family_weak_residual_affine_in_nu(stretch_report):
    """|residual| ~ A nu + B with positive coefficients and a tight fit."""
    sc, g, report = stretch_report
    A, B, rel = fit_residual_model(report.nus, report.weak_residuals)
    assert A > 0 and B > 0
    assert rel < 0.2


def test_family_single_member_degenerates():
    g = Grid(16, 32)
    sc = Scenario("single", identity_motion(), initial_condition("radial_poly", g), 0.05)
    report = run_family(sc, [1e-2], g, StepConfig(dt=2.5e-3))
    assert report.cauchy_l2 == []
    assert len(report.weak_residuals) == 1
    with pytest.raises(ValueError):
        richardson_limit(report)


def test_family_annotates_failures():
    """A member that violates CFL is annotated, not fatal."""
    g = Grid(16, 32)
    sc = Scenario("fail", identity_motion(horizon=10.0),
                  initial_condition("bessel_mode", g), 0.2)
    report = run_family(sc, [1e-2, 1e-3], g, StepConfig(dt=5.0))
    assert len(report.failures) == 2
    assert all(m.failure is not None for m in report.members)


def test_richardson_limit_identical_members():
    """Two runs at the same dynamics give a zero error bar (degenerate check
    via a steady radial flow, where viscosity is the only difference)."""
    g = Grid(32, 64)
    m = identity_motion(horizon=1.0)
    w0 = initial_condition("radial_poly", g)
    sc = Scenario("radial", m, w0, 0.1)
    report = run_family(sc, [1e-3, 1e-4], g, StepConfig(dt=2.5e-3))
    lim = richardson_limit(report)
    # the O(nu) mollification gap of the initial data dominates the bar
    assert lim.final_error < 2e-2 * integrate(w0, 2)
    assert len(lim.error_bars) == len(lim.times)
    assert lim.final_error == lim.error_bars[-1]


def test_richardson_limit_radial_steady_approximates_initial():
    """The nu -> 0 candidate stays O(h^2) + O(nu) close to the steady state."""
    g = Grid(32, 64)
    m = identity_motion(horizon=1.0)
    w0 = initial_condition("bessel_mode", g)
    sc = Scenario("radial_steady", m, w0, 0.2)
    report = run_family(sc, [1e-3, 1e-4], g, StepConfig(dt=2.5e-3))
    lim = richardson_limit(report)
    err = integrate(ScalarField(g, lim.final_field.values - w0.values), 2)
    assert err < 1e-2 * integrate(w0, 2)


def test_write_family_report(tmp_path, stretch_report):
    sc, g, report = stretch_report
    csv_path, txt_path = write_family_report(report, tmp_path)
    lines = open(csv_path).read().splitlines()
    assert lines[0].startswith("nu,")
    assert len(lines) == 1 + len(report.nus)
    summary = open(txt_path).read()
    assert "residual fit" in summary
