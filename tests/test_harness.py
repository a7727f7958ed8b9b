from pathlib import Path

import numpy as np
import pytest

from mdflow import harness
from mdflow.grid import Grid, integrate, pushforward
from mdflow.harness import (
    Scenario,
    fit_residual_model,
    run_family,
    write_family_report,
)
from mdflow.motion import identity_motion
from mdflow.solver import (StepConfig, create_state, initial_condition, mollify_initial,
                           run, step_count)
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
    assert sorted(report.failures) == sorted(m.nu for m in report.members)


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


def test_family_annotates_failures():
    """A member that violates CFL is annotated, not fatal."""
    g = Grid(16, 32)
    sc = Scenario("fail", identity_motion(horizon=10.0),
                  initial_condition("bessel_mode", g), 0.2)
    report = run_family(sc, [1e-2, 1e-3], g, StepConfig(dt=5.0))
    assert len(report.failures) == 2
    assert sorted(report.failures) == sorted(m.nu for m in report.members)


def test_write_family_report(tmp_path, stretch_report):
    sc, g, report = stretch_report
    csv_path, txt_path = write_family_report(report, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("nu,")
    assert len(lines) == 1 + len(report.nus)
    # with no failures, row i carries the distance from member i to i + 1
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == (
        [format(c, ".17g") for c in report.cauchy_l2] + ["nan"])
    summary = Path(txt_path).read_text()
    assert "residual fit" in summary


SMALL_FAMILY_NUS = [1e-2, 1e-3, 1e-4]


def _member_by_hand(sc, g, nu, cfg, store_every=5):
    """One family member run step by step, keeping the time and pushforward
    velocity of every store_every-th step and the last."""
    m = sc.motion
    state = create_state(m, g, mollify_initial(sc.omega0, nu, m), nu)
    last = step_count(state.t, sc.t_final, cfg.dt)
    kept = {"t": [], "v": []}
    steps = 0

    def keep(s):
        nonlocal steps
        if steps % store_every == 0 or steps == last:
            kept["t"].append(s.t)
            kept["v"].append(pushforward(s.motion.forward_matrix(s.t),
                                         s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2))
        steps += 1

    run(state, cfg, sc.t_final, observer=keep)
    return kept


@pytest.fixture(scope="module")
def small_stretch_family():
    """A 16x32 stretch family run by run_family, and the same members run
    by hand with every stored velocity kept."""
    g = Grid(16, 32)
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    sc = Scenario("stretch_16", builtin_motions()["stretch"], w0, 0.1)
    cfg = StepConfig(dt=2.5e-3)
    report = run_family(sc, SMALL_FAMILY_NUS, g, cfg)
    return g, report, [_member_by_hand(sc, g, nu, cfg) for nu in SMALL_FAMILY_NUS]


def test_family_streamed_cauchy_matches_oracle(small_stretch_family):
    g, report, oracle = small_stretch_family
    expected = []
    for a, b in zip(oracle[:-1], oracle[1:]):
        n = min(len(a["t"]), len(b["t"]))
        sq = [float(np.sum(((a1 - b1) ** 2 + (a2 - b2) ** 2) * g.cell_area))
              for (a1, a2), (b1, b2) in zip(a["v"][:n], b["v"][:n])]
        expected.append(float(np.sqrt(np.trapezoid(sq, np.array(a["t"][:n])))))
    assert len(oracle[0]["t"]) == 9
    assert report.cauchy_l2 == expected
    assert [m.cauchy_to_next for m in report.members[:-1]] == expected
    assert np.isnan(report.members[-1].cauchy_to_next)


def test_family_keeps_only_the_snapshots_it_reads(small_stretch_family):
    g, report, oracle = small_stretch_family
    assert all(m.v_snaps == [] for m in report.members)
    assert all(np.array_equal(m.times, o["t"]) for m, o in zip(report.members, oracle))


@pytest.mark.parametrize("failing", [1e-3, 1e-4])
def test_family_streams_past_a_failed_small_member(monkeypatch, failing):
    """The failed member is recorded and skipped; the remaining two
    successful members still give one Cauchy distance."""
    def mollify(omega0, nu, motion):
        if nu == failing:
            raise FloatingPointError("overflow encountered in multiply")
        return mollify_initial(omega0, nu, motion)

    monkeypatch.setattr(harness, "mollify_initial", mollify)
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.01)
    report = run_family(sc, SMALL_FAMILY_NUS, g, StepConfig(dt=2.5e-3))
    assert list(report.failures) == [failing]
    assert len(report.cauchy_l2) == 1


def test_family_report_aligns_cauchy_with_a_failed_member(tmp_path):
    """A failed member's row carries nan; the distance sits on the member it
    starts from, also when an earlier member failed."""
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.01)
    cfg = StepConfig(dt=2.5e-3)
    report = run_family(sc, [1e300, 1e-2, 1e-3], g, cfg)
    assert list(report.failures) == [1e300]
    pair = run_family(sc, [1e-2, 1e-3], g, cfg)
    assert report.cauchy_l2 == pair.cauchy_l2
    csv_path, _ = write_family_report(report, tmp_path)
    cauchy = [line.rsplit(",", 1)[1] for line in Path(csv_path).read_text().splitlines()[1:]]
    assert cauchy == ["nan", format(pair.cauchy_l2[0], ".17g"), "nan"]
