import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdflow.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _KNOWN_KEYS,
    build_initial,
    build_motion,
    main,
    packaged_configs,
    parse_config,
    run,
)
from mdflow.grid import Grid, read_snapshot


MINIMAL = """
motion.kind = identity
initial.preset = bessel_mode
physics.nu = 0.01
"""

SMALL_RUN = """
scenario.id = tiny
motion.kind = stretch
motion.a = 0.2*t
grid.n_r = 24
grid.n_theta = 48
physics.nu = 0.01
physics.T = 0.02
physics.dt = 0.005
initial.preset = offset_bump
initial.center = 0.0,0.0
initial.radius = 0.7
output.snapshot_every = 2
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_r == 128 and cfg.n_theta == 256
    assert cfg.nu == 0.01 and cfg.t_final == 1.0 and cfg.dt == 1e-3
    assert cfg.preset == "bessel_mode"
    assert not cfg.is_family


def test_parse_unknown_kind_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("motion.kind = spiral\n")
    assert any("unknown motion kind" in e for e in err.value.errors)
    assert any("line 1" in e for e in err.value.errors)


def test_parse_collects_all_errors():
    bad = "\n".join([
        "motion.kind = spiral",
        "grid.n_r = 100000",
        "physics.dt = -2",
        "bogus.key = 7",
        "motion.a = tan(t)",
    ])
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert len(err.value.errors) == 5


def test_parse_kind_specific_requirements():
    with pytest.raises(ConfigError, match="motion.cx"):
        parse_config("motion.kind = translation\n")
    with pytest.raises(ConfigError, match="motion.ax"):
        parse_config("motion.kind = rotating_ellipse\n")


def test_bad_motion_expression_is_the_only_error():
    """A present but unparsable key is not also reported as missing."""
    with pytest.raises(ConfigError) as err:
        parse_config("motion.kind = stretch\nmotion.a = 1/t\n")
    assert len(err.value.errors) == 1
    assert "bad expression for motion.a" in err.value.errors[0]


_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(sorted(_KNOWN_KEYS) + ["motion.b", "=", ""]),
              st.text(max_size=16)),
    max_size=10,
).map(lambda kv: "\n".join(f"{key} = {value}" for key, value in kv))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(max_size=200), _CONFIG_LINES))
def test_parse_config_accepts_or_reports_any_text(text):
    """Whatever the text, parse_config returns a RunConfig or raises
    ConfigError, and nothing else."""
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError as exc:
        assert exc.errors


def test_parse_nu_list_routes_to_family():
    cfg = parse_config(MINIMAL + "physics.nu_list = 0.01,0.001\n")
    assert cfg.is_family
    assert cfg.nu_list == [0.01, 0.001]
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(MINIMAL + "physics.nu_list = 0.001,0.01\n")


def test_build_motion_expressions():
    cfg = parse_config("""
motion.kind = translation
motion.cx = sin(t)
motion.cy = 0.5*t^2
physics.T = 2.0
""")
    m = build_motion(cfg)
    from mdflow.motion import material_velocity
    v = material_velocity(m, (0.0, 0.0), 1.0)
    assert v[0] == pytest.approx(np.cos(1.0), abs=1e-14)
    assert v[1] == pytest.approx(1.0, abs=1e-14)


def test_run_writes_outputs_and_passes(tmp_path):
    cfg = parse_config(SMALL_RUN)
    cfg.out_dir = str(tmp_path)
    assert run(cfg, quiet=True) == EXIT_OK
    assert (tmp_path / "tiny_diagnostics.csv").exists()
    assert (tmp_path / "tiny_000000.mdf").exists()
    assert (tmp_path / "tiny_final.mdf").exists()
    assert (tmp_path / "tiny.gp").exists()
    field, t = read_snapshot(tmp_path / "tiny_final.mdf")
    assert t == pytest.approx(0.02)


def test_run_deterministic(tmp_path):
    cfg = parse_config(SMALL_RUN)
    cfg.out_dir = str(tmp_path / "a")
    run(cfg, quiet=True)
    cfg2 = parse_config(SMALL_RUN)
    cfg2.out_dir = str(tmp_path / "b")
    run(cfg2, quiet=True)
    a = (tmp_path / "a" / "tiny_diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "tiny_diagnostics.csv").read_bytes()
    assert a == b


def test_run_huge_dt_reports_cfl(tmp_path, capsys):
    cfg = parse_config(SMALL_RUN.replace("physics.dt = 0.005", "physics.dt = 5.0")
                       .replace("physics.T = 0.02", "physics.T = 10.0")
                       .replace("motion.a = 0.2*t", "motion.a = 0.02*t"))
    cfg.out_dir = str(tmp_path)
    code = run(cfg)
    assert code == EXIT_NUMERICAL
    assert "violates the CFL limit" in capsys.readouterr().out


def test_expression_singular_at_start_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN.replace("motion.a = 0.2*t", "motion.a = 1/t"))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bad expression for motion.a" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_expression_singular_mid_run_is_numerical_failure(tmp_path, capsys):
    """cx = 1/(t - 0.01) is finite at t = 0 and has no value at the second step."""
    cfg = parse_config(SMALL_RUN.replace("motion.kind = stretch", "motion.kind = translation")
                       .replace("motion.a = 0.2*t", "motion.cx = 1/(t - 0.01)\nmotion.cy = 0"))
    cfg.out_dir = str(tmp_path)
    assert run(cfg) == EXIT_NUMERICAL
    assert "cannot be evaluated at t = 0.01" in capsys.readouterr().out


_EXPRESSION_PIECES = ["t", "0", "1", "2.5", "0.01", "1e308", "+", "-", "*", "/", "^",
                      "(", ")", "sin(", "cos(", "exp(", " "]
_MOTION_LINES = {
    "stretch": "motion.a = {}",
    "translation": "motion.cx = {}\nmotion.cy = 0.1*t",
    "rotating_ellipse": "motion.ax = 1.5\nmotion.phi = {}",
}


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(sorted(_MOTION_LINES)),
       expr=st.one_of(st.text(max_size=24),
                      st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=12).map("".join)))
def test_main_exit_code_contract_for_any_motion_expression(kind, expr):
    """Whatever the motion expression, the CLI ends with a contract exit code
    (0 ok, 1 invariant, 2 config, 3 numerical) and never raises."""
    text = "\n".join([
        "scenario.id = fuzz", f"motion.kind = {kind}", _MOTION_LINES[kind].format(expr),
        "grid.n_r = 16", "grid.n_theta = 32", "physics.nu = 0.01", "physics.T = 0.02",
        "physics.dt = 0.005", "initial.preset = offset_bump", "initial.radius = 0.7", "",
    ])
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        code = main(["--config", cfg_path, "--out", os.path.join(tmp, "o"), "--quiet"])
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERICAL)


_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["rotating_ellipse", "stretch"]), dt=_MAGNITUDES,
       steps=st.floats(min_value=1e-6, max_value=4.0),
       nu=st.one_of(st.just(0.0), _MAGNITUDES), amplitude=_MAGNITUDES)
def test_main_exit_code_contract_for_any_rough_run(kind, dt, steps, nu, amplitude):
    """Rough initial data (a disk indicator) under an anisotropic motion,
    with dt, nu and the amplitude anywhere from 1e-300 to 1e300 and T at
    most four steps: the CLI ends with a contract exit code and no
    traceback, and a run that exits 0 ends on T."""
    motion = {"rotating_ellipse": "motion.ax = 1.4142135623730951\nmotion.phi = t",
              "stretch": "motion.a = 0.2*t"}[kind]
    t_final = dt * steps
    text = "\n".join([
        "scenario.id = fuzz", f"motion.kind = {kind}", motion,
        "grid.n_r = 16", "grid.n_theta = 32", f"physics.nu = {nu!r}",
        f"physics.T = {t_final!r}", f"physics.dt = {dt!r}",
        "initial.preset = disk_indicator", f"initial.amplitude = {amplitude!r}", "",
    ])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "o")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", cfg_path, "--out", out, "--quiet"])
        if code == EXIT_OK:
            with open(os.path.join(out, "fuzz_diagnostics.csv")) as fh:
                last = fh.read().splitlines()[-1]
            assert float(last.split(",")[0]) == t_final
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()


def test_run_lands_on_t_final_when_dt_does_not_divide(tmp_path):
    """T = 0.1 with dt = 0.03: the last step shrinks to land on T instead
    of stepping past the motion horizon."""
    cfg = parse_config(SMALL_RUN.replace("grid.n_r = 24", "grid.n_r = 16")
                       .replace("grid.n_theta = 48", "grid.n_theta = 32")
                       .replace("physics.T = 0.02", "physics.T = 0.1")
                       .replace("physics.dt = 0.005", "physics.dt = 0.03"))
    cfg.out_dir = str(tmp_path)
    assert run(cfg, quiet=True) == EXIT_OK
    rows = (tmp_path / "tiny_diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # header, initial state, four steps
    assert float(rows[-1].split(",")[0]) == 0.1


IDENTITY_16 = """
scenario.id = tiny
motion.kind = identity
grid.n_r = 16
grid.n_theta = 32
physics.nu = 0.01
physics.dt = 0.001
initial.preset = bessel_mode
"""


@pytest.mark.parametrize("horizon,steps", [("1e-12", 1), ("0.0100000000005", 10)])
def test_run_ends_on_every_horizon(tmp_path, horizon, steps):
    """A horizon far below one step takes one short step, and one a hair
    past a multiple of dt stretches the last step: both end on T exactly,
    where an absolute 1e-12 slack used to take no step or drop the rest."""
    cfg = parse_config(IDENTITY_16 + f"physics.T = {horizon}\n")
    cfg.out_dir = str(tmp_path)
    assert run(cfg, quiet=True) == EXIT_OK
    rows = (tmp_path / "tiny_diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2 + steps
    assert float(rows[-1].split(",")[0]) == float(horizon)


def test_horizon_beyond_any_step_count_is_config_error():
    with pytest.raises(ConfigError, match="physics.T / physics.dt"):
        parse_config(IDENTITY_16 + "physics.T = 1e300\nphysics.dt = 1e-300\n")


def test_overflow_is_the_only_output_of_a_numerical_failure(tmp_path, capfd):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(IDENTITY_16 + "physics.T = 0.004\ninitial.amplitude = 1e308\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    out, err = capfd.readouterr()
    assert "RuntimeWarning" not in out + err
    assert out.startswith("numerical failure in scenario 'tiny': overflow")


def test_upwind_run_never_builds_the_full_transport_field(tmp_path, monkeypatch):
    """The per-step tangency check reads the three outer rings only, so an
    upwind-MUSCL run makes no advection_field call."""
    import mdflow.solver

    calls = []
    full = mdflow.solver.advection_field
    monkeypatch.setattr(mdflow.solver, "advection_field",
                        lambda state: calls.append(state.t) or full(state))
    cfg = parse_config(SMALL_RUN.replace("grid.n_r = 24", "grid.n_r = 16")
                       .replace("grid.n_theta = 48", "grid.n_theta = 32")
                       + "physics.advection = upwind_muscl\n")
    cfg.out_dir = str(tmp_path)
    assert run(cfg, quiet=True) == EXIT_OK
    assert len((tmp_path / "tiny_diagnostics.csv").read_text().splitlines()) == 1 + 5
    assert calls == []


@pytest.mark.parametrize("content", [b"MDF1garbage", None])
def test_unreadable_snapshot_is_config_error(tmp_path, content):
    path = tmp_path / "ic.mdf"
    if content is not None:
        path.write_bytes(content)
    cfg = parse_config(SMALL_RUN + f"initial.snapshot = {path}\n")
    cfg.out_dir = str(tmp_path / "out")
    assert run(cfg, quiet=True) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()  # nothing is created before validation


def test_snapshot_with_huge_dimensions_is_config_error(tmp_path, capsys):
    """A header whose payload size overflows an index is rejected from the
    file size, before anything is read."""
    snap = tmp_path / "ic.mdf"
    snap.write_bytes(b"MDFLOW v1 scalar 10000000000 10000000000 0\n" + bytes(64))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN + f"initial.snapshot = {snap}\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "cannot read snapshot" in capsys.readouterr().out


def test_uncreatable_output_directory_is_config_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = parse_config(SMALL_RUN)
    cfg.out_dir = str(blocker / "out")
    assert run(cfg, quiet=True) == EXIT_CONFIG


def test_import_loads_no_unused_scipy_subpackage():
    """A fresh import of the package and its CLI loads scipy.linalg and
    scipy.sparse only; quadrature, optimization and special functions cost
    time and memory in every run that does not call them."""
    import mdflow

    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    code = ("import sys, mdflow, mdflow.cli\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


def test_run_family_small(tmp_path):
    cfg = parse_config(SMALL_RUN + "physics.nu_list = 0.01,0.001\n")
    cfg.out_dir = str(tmp_path)
    assert run(cfg, quiet=True) == EXIT_OK
    assert (tmp_path / "tiny_family.csv").exists()
    assert (tmp_path / "tiny_family.txt").exists()


def test_family_verdict_checks_each_members_estimates(tmp_path, capsys, monkeypatch):
    """A member that breaks the tangency bound fails the family run."""
    import mdflow.diagnostics

    monkeypatch.setattr(mdflow.diagnostics, "boundary_tangency_residual", lambda s: 1.0)
    cfg = parse_config(SMALL_RUN.replace("grid.n_r = 24", "grid.n_r = 16")
                       .replace("grid.n_theta = 48", "grid.n_theta = 32")
                       + "physics.nu_list = 0.01,0.001\n")
    cfg.out_dir = str(tmp_path)
    assert run(cfg) == EXIT_INVARIANT
    failures = [line for line in capsys.readouterr().out.splitlines() if "failure" in line]
    assert failures == [f"invariant failure [tiny]: nu={nu}: tangency residual 1.000e+00 "
                        f"exceeds {5 / 16 ** 2:.3e}" for nu in (0.01, 0.001)]


def test_monotonicity_violation_exits_with_invariant_failure(tmp_path, capsys):
    """Central RK2 is not monotone: on an indicator it raises ||omega||_inf."""
    cfg = parse_config("scenario.id = rk2\nmotion.kind = stretch\nmotion.a = 0.2*t\n"
                       "grid.n_r = 16\ngrid.n_theta = 32\nphysics.T = 0.1\n"
                       "physics.dt = 0.005\nphysics.nu = 1e-5\n"
                       "physics.advection = central_rk2\ninitial.preset = disk_indicator\n"
                       "initial.radius = 0.5\n")
    cfg.out_dir = str(tmp_path)
    assert run(cfg) == EXIT_INVARIANT
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "failure" in line] == [
        "invariant failure [rk2]: L^inf monotonicity violated at step 7 "
        "(ratio 1.000085154018)"]
    assert out[-1] == "rk2: 20 steps to t = 0.1, FAIL"


def test_snapshot_initial_data_roundtrip(tmp_path):
    from mdflow.grid import ScalarField, write_snapshot
    g = Grid(24, 48)
    vals = np.random.default_rng(1).normal(size=(24, 48))
    path = tmp_path / "ic.mdf"
    write_snapshot(path, ScalarField(g, vals), 0.0)
    cfg = parse_config(SMALL_RUN + f"initial.snapshot = {path}\n")
    field = build_initial(cfg, g)
    assert np.array_equal(field.values, vals)


def test_main_config_error_exit():
    assert main(["--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG


def test_main_runs_config(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK


def test_invariants_suite_passes():
    assert main(["--suite", "invariants", "--quiet"]) == EXIT_OK


def test_packaged_configs_parse():
    paths = packaged_configs()
    assert len(paths) == 5
    for p in paths:
        cfg = parse_config(open(p).read())
        assert cfg.scenario_id


@pytest.mark.parametrize("lines", [
    "initial.preset = offset_bump\ninitial.radius = 1e300\n",   # radius ** 2
    "physics.mollify = true\nphysics.nu = 1e300\n",            # mollifier substep count
    "physics.nu_list = 1e300,1\n",                              # the same, in a family member
])
def test_python_float_overflow_is_a_numerical_failure(tmp_path, capfd, lines):
    """Python's float ** raises OverflowError, not FloatingPointError; it is
    still a numerical failure (exit 3, one message), and a family records
    the member as failed."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario.id = tiny\nmotion.kind = stretch\nmotion.a = 0.2*t\n"
                        "grid.n_r = 16\ngrid.n_theta = 32\nphysics.T = 0.01\n"
                        "physics.dt = 0.005\n" + lines)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
    failures = [line for line in out.splitlines() if "failure" in line or "failed" in line]
    assert len(failures) == 1
    if "nu_list" in lines:
        assert failures[0].startswith("family member nu=1e+300 failed: OverflowError")
    else:
        assert failures[0].startswith("numerical failure in scenario 'tiny'")
        assert "overflow" in failures[0]
