import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

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
    _KEYS,
    _MOTIONS,
    build_initial,
    build_motion,
    main,
    packaged_configs,
    parse_config,
    run,
)
from mdflow.elliptic import solve_helmholtz
from mdflow.grid import Grid, ScalarField, read_snapshot, write_snapshot
from mdflow.solver import INITIAL_PRESETS


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


@pytest.mark.parametrize("ax", ["5e-324", "1e-310", "inf", "nan"])
def test_ellipse_axis_without_a_finite_reciprocal_is_config_error(tmp_path, capfd, ax):
    """a_y = 1/ax must be finite too: a subnormal ax used to end in a
    ValueError traceback, inf in a ZeroDivisionError, and nan in exit 3."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN.replace("motion.kind = stretch\nmotion.a = 0.2*t",
                                          f"motion.kind = rotating_ellipse\nmotion.ax = {ax}\n"
                                          "motion.phi = t"))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
    assert err == ("config error: line 4: bad value for motion.ax: must be positive and "
                   "finite, with a finite reciprocal\n")


@pytest.mark.parametrize("line, problem", [
    ("initial.amplitude = nan", "initial.amplitude must be finite"),
    ("initial.amplitude = -inf", "initial.amplitude must be finite"),
    ("initial.center = nan,0", "initial.center must be finite"),
    ("initial.center = 0,inf", "initial.center must be finite"),
    ("initial.radius = inf", "initial.radius must be positive and finite"),
])
def test_non_finite_initial_data_is_config_error(tmp_path, capfd, line, problem):
    """A NaN or infinite amplitude used to end in exit 3, and a NaN or
    infinite bump centre or an infinite radius ran to exit 0 on an all-zero
    or constant field."""
    base = SMALL_RUN.replace("initial.center = 0.0,0.0\ninitial.radius = 0.7\n", "")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(base + line + "\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    lineno = len(base.splitlines()) + 1
    assert capfd.readouterr().err == f"config error: line {lineno}: {problem}\n"


@pytest.mark.parametrize("ax", ["2.5217283965692467e+117", "1e150"])
def test_extreme_ellipse_axis_keeps_the_exit_code_contract(tmp_path, capfd, ax):
    """The metric diag(1/ax^2, ax^2) is positive definite, but an
    eigensolver's scaling flushed its small eigenvalue to zero, and the
    solver's metric check ended the run in a ValueError traceback."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"motion.kind = rotating_ellipse\nmotion.ax = {ax}\nmotion.phi = t\n"
                        "grid.n_r = 16\ngrid.n_theta = 32\nphysics.T = 1\nphysics.dt = 1\n"
                        "physics.nu = 0\ninitial.preset = disk_indicator\n")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    out, err = capfd.readouterr()
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERICAL)
    assert "Traceback" not in out + err


def test_readme_lists_every_config_key():
    """README's "Configuration format" block names exactly the keys the
    parser knows, comments included (physics.nu_list is one)."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"### Configuration format.*?```\n(.*?)```", readme, flags=re.S).group(1)
    sections = {line.split(".", 1)[0] for line in block.splitlines() if "=" in line}
    tokens = set(re.findall(r"\b([a-z]+\.[A-Za-z_]+)\b", block))
    assert {tok for tok in tokens if tok.split(".")[0] in sections} == set(_KEYS)


@pytest.mark.parametrize("key", ["physics.cfl", "physics.mollify", "initial.power",
                                 "output.diagnostics"])
def test_removed_key_is_unknown(tmp_path, capfd, key):
    """Keys that no run set are gone: the CFL number is fixed, a single run
    starts from its data unmollified and always writes its diagnostics, and
    radial_poly is (1 - r^2)^2."""
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"{key} = 1\n")
    assert err.value.errors == [f"line 5: unknown key {key!r}"]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + f"{key} = 1\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capfd.readouterr().err == f"config error: line 5: unknown key {key!r}\n"


def test_parse_kind_specific_requirements():
    with pytest.raises(ConfigError, match="motion.cx"):
        parse_config("motion.kind = translation\n")
    with pytest.raises(ConfigError, match="motion.ax"):
        parse_config("motion.kind = rotating_ellipse\n")


_MOTION_VALUES = {"motion.cx": "sin(t)", "motion.cy": "0.5*t^2", "motion.a": "0.2*t",
                  "motion.ax": "1.4142135623730951", "motion.phi": "t"}


@pytest.mark.parametrize("kind", sorted(_MOTIONS))
def test_each_motion_kind_parses_from_its_required_keys_alone(kind):
    """The keys a kind needs are enough to build it, and every built motion
    keeps the area: det S = 1 at t = 0 and at T."""
    text = f"motion.kind = {kind}\nphysics.T = 2.0\n" + "".join(
        f"{key} = {_MOTION_VALUES[key]}\n" for key in _MOTIONS[kind][0])
    m = build_motion(parse_config(text))
    for t in (0.0, 2.0):
        assert np.linalg.det(m.inverse_matrix(t)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("kind, dropped", [
    (kind, key) for kind in sorted(_MOTIONS) for key in _MOTIONS[kind][0]])
def test_a_missing_motion_key_is_the_only_error(kind, dropped):
    """Without any one key its kind needs, a config gets one error naming
    all of that kind's keys."""
    needs = _MOTIONS[kind][0]
    text = f"motion.kind = {kind}\n" + "".join(
        f"{key} = {_MOTION_VALUES[key]}\n" for key in needs if key != dropped)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [f"{kind} motion needs {' and '.join(needs)}"]


def test_bad_motion_expression_is_the_only_error():
    """A present but unparsable key is not also reported as missing."""
    with pytest.raises(ConfigError) as err:
        parse_config("motion.kind = stretch\nmotion.a = 1/t\n")
    assert len(err.value.errors) == 1
    assert "bad expression for motion.a" in err.value.errors[0]


_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(sorted(_KEYS) + ["motion.b", "=", ""]),
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


@pytest.mark.parametrize("lines,code", [
    ("motion.kind = stretch\nmotion.a = sin((0-1)^0.5)\n", EXIT_CONFIG),
    ("motion.kind = stretch\nmotion.a = 0.1*sin((0.004-t)^2.5)\nphysics.dt = 0.005\n"
     "physics.T = 0.02\nphysics.nu = 0\n", EXIT_NUMERICAL),
    ("motion.kind = rotating_ellipse\nmotion.ax = 1.5\nmotion.phi = exp((0-2)^0.5)\n",
     EXIT_CONFIG),
], ids=["stretch_at_start", "stretch_mid_run", "ellipse_at_start"])
def test_negative_base_to_a_fractional_power_is_one_line(tmp_path, capfd, lines, code):
    """Python's (-1.0) ** 0.5 is complex, and sin, cos and exp of it raised a
    TypeError traceback (exit 1); it is a config error at t = 0 and a
    numerical failure later, each with one line."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario.id = tiny\ngrid.n_r = 8\ngrid.n_theta = 8\n" + lines)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
    assert len((out + err).splitlines()) == 1
    assert "is not a real number" in out + err


_EXPRESSION_PIECES = ["t", "0", "1", "0.5", "2.5", "0.01", "1e308", "+", "-", "*", "/", "^",
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
# a rate k in k*t: zero, or a signed magnitude
_RATES = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * k,
                                           st.sampled_from((1.0, -1.0)), _MAGNITUDES))
_ROUGH_MOTIONS = {
    "rotating_ellipse": st.tuples(
        st.one_of(st.sampled_from([math.sqrt(2.0), 5e-324, 1e-310, 1e300, math.inf, math.nan]),
                  st.floats()),
        _RATES).map(lambda p: f"motion.ax = {p[0]!r}\nmotion.phi = {p[1]!r}*t"),
    "stretch": _RATES.map(lambda k: f"motion.a = {k!r}*t"),
    "translation": st.one_of(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(allow_nan=False, allow_infinity=False))
        .map(lambda c: f"motion.cx = {c[0]!r}\nmotion.cy = {c[1]!r}"),
        st.tuples(_RATES, _RATES)
        .map(lambda k: f"motion.cx = {k[0]!r}*t\nmotion.cy = sin({k[1]!r}*t)")),
}


# A family member's mollifier takes about (j01^2 nu)^2 / 0.006 solves while
# exp(-j01^2 nu) is above round-off: about 5,600 at nu = 1 and 220,000 just
# below nu = 6.4, at 1-2 ms each under a rotating ellipse at 24x48 (5-11 s
# at nu = 1).  The draw leaves out the band from 0.3 (500 solves) to 10 (44
# solves) to keep each example under a few seconds.
_FAMILY_NUS = st.lists(_MAGNITUDES.filter(lambda nu: not 0.3 < nu < 10.0),
                       min_size=1, max_size=3, unique=True)


@settings(max_examples=250, deadline=None)
@given(motion=st.sampled_from(sorted(_ROUGH_MOTIONS)).flatmap(
           lambda kind: _ROUGH_MOTIONS[kind].map(lambda lines: (kind, lines))),
       n_r=st.integers(min_value=8, max_value=24),
       n_theta=st.integers(min_value=4, max_value=24).map(lambda half: 2 * half),
       dt=_MAGNITUDES, steps=st.floats(min_value=1e-6, max_value=4.0),
       nu=st.one_of(st.just(0.0), _MAGNITUDES), amplitude=_MAGNITUDES,
       preset=st.sampled_from(INITIAL_PRESETS),
       nu_list=st.one_of(st.none(), _FAMILY_NUS))
def test_main_exit_code_contract_for_any_rough_run(motion, n_r, n_theta, dt, steps, nu,
                                                   amplitude, preset, nu_list):
    """Every initial-data preset on grids from 8x8 to 24x48 under every
    moving kind: the ellipse's axis anywhere in the floats (subnormal,
    huge, inf, nan), constant translations, and rates k in phi = k t,
    a = k t and the path (k1 t, sin(k2 t)) zero or of magnitude 1e-300 to
    1e300; dt, nu and the amplitude anywhere from 1e-300 to 1e300, T at
    most four steps, and single runs or families of one to three
    viscosities from 1e-300 to 1e300.  The CLI ends with a contract exit
    code, no traceback and no RuntimeWarning; a single run that exits 0
    ends on T, and a family that exits 0 has written its report."""
    kind, lines = motion
    t_final = dt * steps
    family = [] if nu_list is None else \
        [f"physics.nu_list = {','.join(repr(v) for v in sorted(nu_list, reverse=True))}"]
    text = "\n".join([
        "scenario.id = fuzz", f"motion.kind = {kind}", lines,
        f"grid.n_r = {n_r}", f"grid.n_theta = {n_theta}", f"physics.nu = {nu!r}", *family,
        f"physics.T = {t_final!r}", f"physics.dt = {dt!r}",
        f"initial.preset = {preset}", f"initial.amplitude = {amplitude!r}", "",
    ])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "o")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", cfg_path, "--out", out, "--quiet"])
        if code == EXIT_OK and family:
            assert os.path.exists(os.path.join(out, "fuzz_family.csv"))
        elif code == EXIT_OK:
            with open(os.path.join(out, "fuzz_diagnostics.csv")) as fh:
                last = fh.read().splitlines()[-1]
            assert float(last.split(",")[0]) == t_final
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


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


@pytest.mark.parametrize("lines", [
    # the ellipse's forward matrix E^-1 R(-phi) meets inf * 0 in matmul
    "motion.kind = rotating_ellipse\nmotion.ax = 1.7976931348623157e308\nmotion.phi = t\n"
    "grid.n_r = 16\ngrid.n_theta = 32\ninitial.preset = disk_indicator\n",
    # nu * dt rounds to inf, and the Helmholtz stencil multiplies it by mode 0
    "motion.kind = rotating_ellipse\nmotion.ax = 1.0\nmotion.phi = 1e-300*t\n"
    "grid.n_r = 8\ngrid.n_theta = 8\nphysics.nu = 7.152275590911249e+291\n"
    "physics.T = 2.5134561888900556e+16\nphysics.dt = 2.5134561888900556e+16\n"
    "initial.preset = disk_indicator\ninitial.amplitude = 1e-300\n",
], ids=["huge_axis", "huge_nu_dt"])
def test_invalid_value_is_the_only_output_of_a_numerical_failure(tmp_path, capfd, lines):
    """An invalid value (inf - inf, 0 * inf) ends the run like an overflow:
    exit 3 with one line, and no RuntimeWarning printed before it."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario.id = tiny\n" + lines)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == EXIT_NUMERICAL
    out, err = capfd.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1
    assert out.startswith("numerical failure in scenario 'tiny'")


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


@pytest.mark.parametrize("scenario_id,family", [("a/b", False), ("a/b", True), ("a\0b", False)])
def test_scenario_id_that_is_not_one_path_component_is_config_error(tmp_path, capfd,
                                                                     scenario_id, family):
    """The id names the output files: a '/' or NUL in it is a config error,
    not a traceback from the diagnostics writer or the family report."""
    text = SMALL_RUN.replace("scenario.id = tiny", f"scenario.id = {scenario_id}")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + ("physics.nu_list = 0.01,0.001\n" if family else ""))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert "scenario.id must not contain" in err and "Traceback" not in out + err


@pytest.mark.parametrize("family", [False, True])
def test_scenario_id_too_long_for_a_file_name_is_config_error(tmp_path, capfd, family):
    """An id whose longest output name, <id>_diagnostics.csv, passes 255
    bytes is a config error before anything runs, not an OSError from the
    diagnostics writer or, after every member has run, the family report."""
    family_line = "physics.nu_list = 0.01,0.001\n" if family else ""
    longest_ok = "x" * (255 - len("_diagnostics.csv"))
    assert parse_config(SMALL_RUN.replace("tiny", longest_ok) + family_line).scenario_id \
        == longest_ok
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN.replace("tiny", "x" * 300) + family_line)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert "scenario.id is too long" in err and "Traceback" not in out + err
    assert not (tmp_path / "o").exists()


def test_output_directory_with_nul_is_config_error(tmp_path, capfd):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN + f"output.directory = {tmp_path}/o\0ut\n")
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert "cannot create output directory" in out and "Traceback" not in out + err


def test_import_loads_no_unused_scipy_subpackage(tmp_path):
    """A fresh import of the package and its CLI loads no scipy module, and
    neither does an isotropic bessel_mode run (numpy's cyclic reduction)
    nor a small rotating-ellipse run (numpy's BiCGstab on top of it).  The
    control: a Krylov solve that stalls falls back to scipy's GMRES, and
    so loads scipy.sparse.linalg."""
    import mdflow

    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    config = MINIMAL + "grid.n_r = 8\ngrid.n_theta = 16\nphysics.T = 0.002\n"
    anisotropic = config.replace("identity", "rotating_ellipse\nmotion.ax = 1.2\nmotion.phi = t")
    code = ("import sys, mdflow, mdflow.cli\n"
            "from mdflow import elliptic\n"
            "from mdflow.grid import Grid, ScalarField\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "for text, out in zip(sys.argv[1:3], sys.argv[3:5]):\n"
            "    cfg = mdflow.cli.parse_config(text)\n"
            "    cfg.out_dir = out\n"
            "    assert mdflow.cli.run(cfg, quiet=True) == 0\n"
            "    print(loaded())\n"
            "g = Grid(8, 16)\n"
            "q = [[1.5, 0.2], [0.2, 0.8]]\n"
            "_, report = elliptic._solve(q, ScalarField(g, g.y1 ** 2), tol=1e-10, maxiter=1,\n"
            "                            what='stalled')\n"
            "assert report.fallback\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code, config, anisotropic,
                          str(tmp_path / "iso"), str(tmp_path / "aniso")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    after_import, after_isotropic, after_anisotropic, after_fallback = out.split("\n")[:4]
    assert after_import == after_isotropic == after_anisotropic == "[]"
    assert "'scipy.sparse.linalg'" in after_fallback


def test_a_faint_anisotropic_flow_runs_without_scipy(tmp_path):
    """A rotating-ellipse run of amplitude 1e-10 needs no GMRES fallback,
    since BiCGstab's breakdown tests do not depend on the right side's
    size, so it exits 0 in a process where scipy cannot be imported."""
    import mdflow

    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("motion.kind = rotating_ellipse\nmotion.ax = 1.4142135623730951\n"
                        "motion.phi = t\ngrid.n_r = 16\ngrid.n_theta = 32\n"
                        "physics.nu = 0.01\nphysics.T = 0.01\nphysics.dt = 0.0025\n"
                        "initial.preset = offset_bump\ninitial.center = 0.0,0.0\n"
                        "initial.radius = 0.7\ninitial.amplitude = 1e-10\n")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mdflow.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, "--config", str(cfg_path),
                           "--out", str(tmp_path / "o"), "--quiet"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == EXIT_OK, done.stderr


def test_a_flow_too_faint_for_a_squared_norm_is_solved_not_zeroed(tmp_path):
    """At amplitude 1e-170 the squares of the Helmholtz right side underflow;
    scaled by its peak, the solve still returns the flow, which is 1e-160
    times the 1e-10 run's."""
    finals = {}
    for amplitude in ("1e-10", "1e-170"):
        cfg = parse_config("motion.kind = rotating_ellipse\nmotion.ax = 1.4142135623730951\n"
                           "motion.phi = t\ngrid.n_r = 16\ngrid.n_theta = 32\n"
                           "physics.nu = 0.01\nphysics.T = 0.01\nphysics.dt = 0.0025\n"
                           "initial.preset = offset_bump\ninitial.center = 0.1,0.0\n"
                           f"initial.radius = 0.7\ninitial.amplitude = {amplitude}\n")
        cfg.out_dir = str(tmp_path / amplitude)
        assert run(cfg, quiet=True) == EXIT_OK
        last = (tmp_path / amplitude / "run_diagnostics.csv").read_text().splitlines()[-1]
        cols = [float(v) for v in last.split(",")]
        finals[amplitude] = np.array([cols[4], cols[13]])    # linf, circulation
    assert np.all(finals["1e-10"] != 0)
    np.testing.assert_allclose(finals["1e-170"] * 1e160, finals["1e-10"], rtol=1e-9)


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


def test_single_run_invariant_failure_exits_with_one_line_and_fail(tmp_path, capsys,
                                                                   monkeypatch):
    """A single run that breaks the tangency bound prints one failure line,
    ends on a FAIL summary and exits 1."""
    import mdflow.diagnostics

    monkeypatch.setattr(mdflow.diagnostics, "boundary_tangency_residual", lambda s: 1.0)
    cfg = parse_config(SMALL_RUN.replace("grid.n_r = 24", "grid.n_r = 16")
                       .replace("grid.n_theta = 48", "grid.n_theta = 32"))
    cfg.out_dir = str(tmp_path)
    assert run(cfg) == EXIT_INVARIANT
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "failure" in line] == [
        f"invariant failure [tiny]: tangency residual 1.000e+00 exceeds {5 / 16 ** 2:.3e}"]
    assert out[-1] == "tiny: 4 steps to t = 0.02, FAIL"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="backward Euler's resolvent has negative entries, from the anisotropic "
                          "stencil's cross-derivative terms and from the spectral angular term: "
                          "L^inf grows by a ratio 1.000000127584 at step 1")
def test_backward_euler_keeps_linf_on_rough_data_under_the_rotating_ellipse(tmp_path, capsys):
    """Backward Euler keeps L^2, not L^inf, on rough data.  This pins the
    smallest known counterexample under an anisotropic metric; it passes,
    and so fails as an unexpected pass, once the scheme keeps the maximum
    principle."""
    cfg = parse_config("scenario.id = mono\nmotion.kind = rotating_ellipse\n"
                       "motion.ax = 1.4142135623730951\nmotion.phi = t\n"
                       "grid.n_r = 16\ngrid.n_theta = 32\nphysics.nu = 0.01\n"
                       "physics.dt = 0.01\nphysics.T = 0.01\n"
                       "initial.preset = disk_indicator\n")
    cfg.out_dir = str(tmp_path)
    code = run(cfg)
    assert code == EXIT_OK, capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the spectral angular term gives the isotropic resolvent (I - sL)^-1 "
                          "negative entries: at s = 1e-4 on 16x32 its infinity norm is 1.0746, "
                          "and L^inf grows by a ratio 1.073607438982 at step 1")
def test_backward_euler_keeps_linf_on_rough_data_under_the_identity(tmp_path, capsys):
    """The same under the identity motion: the initial data is the sign
    pattern of the row of (I - nu dt L)^-1 with the largest absolute sum,
    which that row maps to its infinity norm.  The resolvent is built one
    column per unit vector, 512 solves."""
    g = Grid(16, 32)
    units = np.eye(g.n_r * g.n_theta).reshape(-1, g.n_r, g.n_theta)
    resolvent = np.stack([solve_helmholtz(np.eye(2), ScalarField(g, unit), 0.01 * 0.01)
                          .values.ravel() for unit in units], axis=1)
    worst = np.argmax(np.sum(np.abs(resolvent), axis=1))
    path = tmp_path / "ic.mdf"
    write_snapshot(path, ScalarField(g, np.sign(resolvent[worst]).reshape(g.n_r, g.n_theta)),
                   0.0)
    cfg = parse_config("scenario.id = mono\nmotion.kind = identity\n"
                       "grid.n_r = 16\ngrid.n_theta = 32\nphysics.nu = 0.01\n"
                       "physics.dt = 0.01\nphysics.T = 0.01\n"
                       f"initial.snapshot = {path}\n")
    cfg.out_dir = str(tmp_path)
    code = run(cfg)
    assert code == EXIT_OK, capsys.readouterr().out


def test_snapshot_initial_data_roundtrip(tmp_path):
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


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "invariants"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'invariants'" in capsys.readouterr().err


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a file of the test's own."""

    def __init__(self, fd):
        self._fd = fd

    def fileno(self):
        return self._fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_a_traceback(tmp_path, monkeypatch, capfd):
    """A reader that stops early (mdflow ... | head -1) is an output error,
    exit 2, not a BrokenPipeError traceback that exits 1 like an invariant
    failure.  main points the descriptor at os.devnull, so the interpreter's
    final flush cannot raise again."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        redirected = os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        monkeypatch.undo()
        os.close(fd)
    assert code == EXIT_CONFIG and redirected
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err


def test_packaged_configs_parse():
    paths = packaged_configs()
    assert len(paths) == 5
    for p in paths:
        cfg = parse_config(Path(p).read_text())
        assert cfg.scenario_id


def _run_tiny_stretch(tmp_path, capfd, lines):
    """Exit code and failure lines of a 16x32 stretch run with extra lines."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario.id = tiny\nmotion.kind = stretch\nmotion.a = 0.2*t\n"
                        "grid.n_r = 16\ngrid.n_theta = 32\nphysics.T = 0.01\n"
                        "physics.dt = 0.005\n" + lines)
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
    return code, [line for line in out.splitlines() if "failure" in line or "failed" in line]


@pytest.mark.parametrize("lines", [
    "initial.preset = offset_bump\ninitial.radius = 1e300\n",   # radius ** 2
])
def test_python_float_overflow_is_a_numerical_failure(tmp_path, capfd, lines):
    """Python's float ** raises OverflowError, not FloatingPointError; it is
    still a numerical failure (exit 3, one message)."""
    code, failures = _run_tiny_stretch(tmp_path, capfd, lines)
    assert code == EXIT_NUMERICAL
    assert len(failures) == 1
    assert failures[0].startswith("numerical failure in scenario 'tiny'")
    assert "overflow" in failures[0]


def test_family_member_past_round_off_runs(tmp_path, capfd):
    """The mollifier takes no power of its substep count past round-off, so
    a member at nu = 1e300, whose mollified data is zero to round-off, runs
    and the family writes its report."""
    code, failures = _run_tiny_stretch(tmp_path, capfd, "physics.nu_list = 1e300,1\n")
    assert code == EXIT_OK and failures == []
    assert (tmp_path / "o" / "tiny_family.csv").exists()


def test_family_records_a_member_whose_solve_overflows(tmp_path, capfd):
    """nu = 1e308 overflows numpy's arithmetic in the member's first
    diffusion solve: a numerical failure (exit 3), recorded on that member
    alone."""
    code, failures = _run_tiny_stretch(tmp_path, capfd, "physics.nu_list = 1e308,1\n")
    assert code == EXIT_NUMERICAL
    assert len(failures) == 1
    assert failures[0].startswith("family member nu=1e+308 failed: FloatingPointError")


class _OutOfMemory:
    """Stands in for the anisotropic stencil when memory runs out."""

    def __init__(self, grid):
        raise MemoryError


def test_out_of_memory_is_a_numerical_failure(tmp_path, capfd, monkeypatch):
    """A run that runs out of memory exits 3 with one fixed line, not a
    traceback (str(MemoryError()) is empty); injected, never allocated."""
    import mdflow.elliptic

    monkeypatch.setattr(mdflow.elliptic, "_ModeOperator", _OutOfMemory)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("scenario.id = oom\nmotion.kind = rotating_ellipse\n"
                        "motion.ax = 1.4142135623730951\nmotion.phi = t\n"
                        "grid.n_r = 16\ngrid.n_theta = 32\nphysics.nu = 0.01\n"
                        "physics.T = 0.005\nphysics.dt = 0.0025\n"
                        "initial.preset = offset_bump\ninitial.center = 0.0,0.0\n"
                        "initial.radius = 0.7\n")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    out, err = capfd.readouterr()
    assert "Traceback" not in out + err
    assert code == EXIT_NUMERICAL
    assert out.splitlines() == ["numerical failure in scenario 'oom': out of memory"]


def test_family_records_a_member_that_runs_out_of_memory(tmp_path, capfd, monkeypatch):
    """Out of memory in a family member is a numerical failure of that
    member, reported by name (exit 3)."""
    import mdflow.elliptic

    monkeypatch.setattr(mdflow.elliptic, "_ModeOperator", _OutOfMemory)
    code, failures = _run_tiny_stretch(tmp_path, capfd, "physics.nu_list = 0.01,0.001\n")
    assert code == EXIT_NUMERICAL
    assert failures == [f"family member nu={nu} failed: MemoryError: out of memory"
                        for nu in (0.01, 0.001)]
