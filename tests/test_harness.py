from pathlib import Path

import numpy as np
import pytest

from mdflow import cli, harness
from mdflow.diagnostics import R_SET, RunLog
from mdflow.grid import Grid, ScalarField, integrate, pushforward
from mdflow.harness import (
    FamilyMember,
    FamilyReport,
    Scenario,
    fit_residual_model,
    run_family,
    write_family_report,
)
from mdflow.motion import identity_motion
from mdflow.solver import (create_state, initial_condition, mollify_initial,
                           run, step_count)
from conftest import builtin_motions


@pytest.fixture(scope="module")
def stretch_report():
    g = Grid(32, 64)
    m = builtin_motions()["stretch"]
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    sc = Scenario("stretch_small", m, w0, 0.2)
    return sc, g, run_family(sc, [1e-2, 1e-3, 1e-4], 2.5e-3)


def test_family_validates_viscosities():
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.1)
    with pytest.raises(ValueError):
        run_family(sc, [1e-3, 1e-2], 1e-3)
    with pytest.raises(ValueError):
        run_family(sc, [1e-2, 0.0], 1e-3)


def test_family_records_cfl_failure_as_failed_member():
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(10.0), initial_condition("offset_bump", g), 10.0)
    report = run_family(sc, [1e-2, 1e-3], 5.0)
    assert [m.nu for m in report.members] == [1e-2, 1e-3]
    assert all(m.error.startswith("CFLError") for m in report.members)


def test_family_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a member run")

    monkeypatch.setattr(harness, "_run_member", broken)
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.1)
    with pytest.raises(TypeError, match="bug in a member run"):
        run_family(sc, [1e-2, 1e-3], 1e-3)


def test_family_uniform_lr_bounds(stretch_report):
    """sup_t ||omega_nu||_r stays within ||omega_0||_r + 1e-6 for every nu."""
    sc, g, report = stretch_report
    for r in R_SET:
        sups = [m.lr_sup(r) for m in report.members]
        bound = integrate(sc.omega0, r) + 1e-6
        assert all(s <= bound for s in sups), (r, sups, bound)
    assert report.failures() == []


def test_family_cauchy_decreasing(stretch_report):
    sc, g, report = stretch_report
    cauchy = [m.cauchy_to_next for m in report.members]
    assert len(cauchy) == 3 and np.isnan(cauchy[2])
    assert cauchy[0] > cauchy[1] > 0
    assert report.failures() == []


def test_family_weak_residual_affine_in_nu(stretch_report):
    """|residual| ~ A nu + B with positive coefficients and a tight fit."""
    sc, g, report = stretch_report
    A, B, rel = fit_residual_model([m.nu for m in report.members],
                                   [m.weak_residual for m in report.members])
    assert A > 0 and B > 0
    assert rel < 0.2


def test_family_single_member_degenerates():
    g = Grid(16, 32)
    sc = Scenario("single", identity_motion(), initial_condition("radial_poly", g), 0.05)
    report = run_family(sc, [1e-2], 2.5e-3)
    (member,) = report.members
    assert np.isnan(member.cauchy_to_next)
    assert np.isfinite(member.weak_residual) and not member.error
    assert report.failures() == []


def test_family_annotates_failures():
    """A member that violates CFL is annotated, not fatal."""
    g = Grid(16, 32)
    sc = Scenario("fail", identity_motion(horizon=10.0),
                  initial_condition("bessel_mode", g), 0.2)
    report = run_family(sc, [1e-2, 1e-3], 5.0)
    assert [m.nu for m in report.members] == [1e-2, 1e-3]
    assert all(m.error for m in report.members)


def test_write_family_report(tmp_path, stretch_report):
    sc, g, report = stretch_report
    csv_path, txt_path = write_family_report(report, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("nu,")
    assert len(lines) == 1 + len(report.members)
    # with no failures, row i carries the distance from member i to i + 1
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == (
        [format(m.cauchy_to_next, ".17g") for m in report.members[:-1]] + ["nan"])
    summary = Path(txt_path).read_text()
    assert "residual fit" in summary


def _log_with_sups(linf, log=None):
    """`log` (a fresh RunLog when None) holding one state whose L^inf norm
    is linf and whose finite-r norms are 0."""
    log = RunLog() if log is None else log
    log.lr_series = [{**dict.fromkeys(R_SET, 0.0), np.inf: linf}]
    return log


def _report_that_breaks_every_family_check():
    """A hand-built family of three on 16x32 from omega_0 = 1, whose norms
    are known: the first member's log breaks the tangency bound, the
    second's sup_t ||omega||_inf = 1.5 breaks the uniform L^inf bound
    1 + 1e-6, the L^1.5..L^4 sups of 0 hold, and the Cauchy distances grow."""
    g = Grid(16, 32)
    log = RunLog()
    run(create_state(identity_motion(horizon=1.0), initial_condition("radial_poly", g), 0.01),
        0.01, 0.02, observer=log)
    log.tangency_sup = 1.0
    logs = [_log_with_sups(1.0, log), _log_with_sups(1.5), _log_with_sups(1.0)]
    members = [FamilyMember(nu=nu, log=logs[i], weak_residual=3e-3 - 1e-3 * i,
                            cauchy_to_next=cauchy)
               for i, (nu, cauchy) in enumerate(zip([1e-2, 1e-3, 1e-4], [0.25, 0.5, np.nan]))]
    return FamilyReport(scenario="tiny", omega0=ScalarField(g, np.ones((16, 32))),
                        members=members)


FAMILY_VERDICT = [
    "nu=0.01: tangency residual 1.000e+00 exceeds 1.953e-02",
    "uniform L^inf bound violated: sup 1.50000000 > 1.00000100",
    "Cauchy differences not decreasing: [0.25, 0.5]",
]


def test_family_verdict_lists_members_then_bounds_then_cauchy():
    assert _report_that_breaks_every_family_check().failures() == FAMILY_VERDICT


def test_family_verdict_names_the_sup_past_a_failed_member():
    """A failed first member has no sups; the uniform bound is judged on
    the successful members, so the line names the second member's sup."""
    g = Grid(16, 32)
    members = [FamilyMember(nu=1e-2, error="CFLError: step too large"),
               FamilyMember(nu=1e-3, log=_log_with_sups(1.5), weak_residual=1e-3)]
    report = FamilyReport(scenario="tiny", omega0=ScalarField(g, np.ones((16, 32))),
                          members=members)
    assert report.failures() == [FAMILY_VERDICT[1]]


def test_cli_prints_the_family_verdict_and_exits_1(tmp_path, capsys, monkeypatch):
    """The CLI prints the library's verdict line by line, then FAIL."""
    monkeypatch.setattr(cli, "run_family",
                        lambda scenario, nus, dt: _report_that_breaks_every_family_check())
    cfg = cli.parse_config("scenario.id = tiny\nmotion.kind = identity\ngrid.n_r = 16\n"
                           "grid.n_theta = 32\nphysics.nu_list = 0.01,0.001,0.0001\n"
                           "physics.T = 0.02\nphysics.dt = 0.01\n")
    cfg.out_dir = str(tmp_path)
    assert cli.run(cfg) == cli.EXIT_INVARIANT
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"invariant failure [tiny]: {f}" for f in FAMILY_VERDICT] + [
        "tiny: family of 3, FAIL"]


SMALL_FAMILY_NUS = [1e-2, 1e-3, 1e-4]


def _member_by_hand(sc, g, nu, dt, store_every=5):
    """One family member run step by step, keeping the time and pushforward
    velocity of every store_every-th step and the last."""
    m = sc.motion
    state = create_state(m, mollify_initial(sc.omega0, nu, m), nu)
    last = step_count(state.t, sc.t_final, dt)
    kept = {"t": [], "v": []}
    steps = 0

    def keep(s):
        nonlocal steps
        if steps % store_every == 0 or steps == last:
            kept["t"].append(s.t)
            kept["v"].append(pushforward(s.motion.forward_matrix(s.t),
                                         s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2))
        steps += 1

    run(state, dt, sc.t_final, observer=keep)
    return kept


@pytest.fixture(scope="module")
def small_stretch_family():
    """A 16x32 stretch family run by run_family, and the same members run
    by hand with every stored velocity kept."""
    g = Grid(16, 32)
    w0 = initial_condition("offset_bump", g, center=(0, 0), radius=0.7)
    sc = Scenario("stretch_16", builtin_motions()["stretch"], w0, 0.1)
    dt = 2.5e-3
    report = run_family(sc, SMALL_FAMILY_NUS, dt)
    return g, report, [_member_by_hand(sc, g, nu, dt) for nu in SMALL_FAMILY_NUS]


def test_family_streamed_cauchy_matches_oracle(small_stretch_family):
    g, report, oracle = small_stretch_family
    expected = []
    for a, b in zip(oracle[:-1], oracle[1:]):
        n = min(len(a["t"]), len(b["t"]))
        sq = [float(np.sum(((a1 - b1) ** 2 + (a2 - b2) ** 2) * g.cell_area))
              for (a1, a2), (b1, b2) in zip(a["v"][:n], b["v"][:n])]
        expected.append(float(np.sqrt(np.trapezoid(sq, np.array(a["t"][:n])))))
    assert len(oracle[0]["t"]) == 9
    assert [m.cauchy_to_next for m in report.members[:-1]] == expected
    assert np.isnan(report.members[-1].cauchy_to_next)


def _family_with_a_failing_member(monkeypatch, failing, error):
    def mollify(omega0, nu, motion):
        if nu == failing:
            raise error
        return mollify_initial(omega0, nu, motion)

    monkeypatch.setattr(harness, "mollify_initial", mollify)
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.01)
    return run_family(sc, SMALL_FAMILY_NUS, 2.5e-3)


def _errors(report):
    return {m.nu: m.error for m in report.members if m.error}


def _distances(report):
    """The Cauchy distances the family measured, in member order."""
    return [m.cauchy_to_next for m in report.members if not np.isnan(m.cauchy_to_next)]


@pytest.mark.parametrize("failing", [1e-3, 1e-4])
def test_family_streams_past_a_failed_small_member(monkeypatch, failing):
    """The failed member is recorded and skipped; the remaining two
    successful members still give one Cauchy distance."""
    report = _family_with_a_failing_member(
        monkeypatch, failing, FloatingPointError("overflow encountered in multiply"))
    assert list(_errors(report)) == [failing]
    assert len(_distances(report)) == 1


def test_family_records_a_python_float_overflow_member(monkeypatch):
    """Python's float ** raises OverflowError, not FloatingPointError; a
    family records that member as failed all the same."""
    report = _family_with_a_failing_member(monkeypatch, 1e-3,
                                           OverflowError("(34, 'Numerical result out of range')"))
    assert _errors(report)[1e-3].startswith("OverflowError")
    assert len(_distances(report)) == 1


def test_family_report_aligns_cauchy_with_a_failed_member(tmp_path):
    """A failed member's row carries nan; the distance sits on the member it
    starts from, also when an earlier member failed.  nu = 1e308 overflows
    its first diffusion solve, which the CLI's error state makes a
    FloatingPointError."""
    g = Grid(16, 32)
    sc = Scenario("x", identity_motion(), initial_condition("radial_poly", g), 0.01)
    dt = 2.5e-3
    with np.errstate(over="raise", invalid="raise"):
        report = run_family(sc, [1e308, 1e-2, 1e-3], dt)
    assert list(_errors(report)) == [1e308]
    assert _errors(report)[1e308].startswith("FloatingPointError")
    pair = run_family(sc, [1e-2, 1e-3], dt)
    assert _distances(report) == _distances(pair)
    csv_path, _ = write_family_report(report, tmp_path)
    cauchy = [line.rsplit(",", 1)[1] for line in Path(csv_path).read_text().splitlines()[1:]]
    assert cauchy == ["nan", format(_distances(pair)[0], ".17g"), "nan"]
