"""Command-line entry point: parse run configurations and dispatch runs.

Configurations are flat `section.key = value` text files (see README for
the full key list).  A run writes a diagnostics CSV stream, optional
field snapshots, and for viscosity families the family report; the exit
status encodes the outcome: 0 all enabled invariant checks passed,
1 invariant failure, 2 configuration error (an unwritable output
directory or a closed stdout included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import motion as mo
from .diagnostics import DiagnosticsWriter, RunLog, gnuplot_stub, record
from .expressions import EvaluationError, TimeFunction
from .grid import Grid, read_snapshot, write_snapshot
from .harness import Scenario, run_family, write_family_report
from .solver import (
    INITIAL_PRESETS,
    NUMERICAL_FAILURES,
    create_state,
    initial_condition,
    run as run_steps,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MAX_STEPS = 1e9          # most steps physics.T / physics.dt may ask for
MAX_NAME_BYTES = 255     # longest file name the usual file systems accept


class ConfigError(ValueError):
    """Carries every validation error found in a config file."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    scenario_id: str = "run"
    motion_kind: str = "identity"
    motion_params: dict = field(default_factory=dict)
    n_r: int = 128
    n_theta: int = 256
    nu: float | None = 0.01
    nu_list: list | None = None
    t_final: float = 1.0
    dt: float = 1e-3
    preset: str = "bessel_mode"
    amplitude: float = 1.0
    center: tuple = (0.0, 0.0)
    radius: float = 0.5
    snapshot_path: str | None = None
    out_dir: str = "out"
    snapshot_every: int = 0

    @property
    def is_family(self) -> bool:
        return self.nu_list is not None


def _require(ok, problem):
    """A check: None when ok(value), else the problem."""
    return lambda v: None if ok(v) else problem


def _one_of(what, choices):
    return lambda v: None if v in choices else \
        f"unknown {what} {v!r} (choose from {', '.join(choices)})"


def _check_id(v):
    # the id names the output files, so it must be one path component,
    # and the longest of those names must fit in one
    if "/" in v or "\0" in v:
        return "must not contain '/' or NUL"
    size = len(os.fsencode(f"{v}_diagnostics.csv"))
    if size > MAX_NAME_BYTES:
        return (f"is too long: the output file {v[:16]}..._diagnostics.csv would "
                f"have a {size}-byte name, more than {MAX_NAME_BYTES}")
    return None


def _pair(v):
    parts = [float(p) for p in v.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return tuple(parts)


def _viscosities(v):
    nus = [float(p) for p in v.split(",")]
    if len(nus) < 1 or any(nu <= 0 for nu in nus):
        raise ValueError("entries must be positive")
    if any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("entries must be strictly decreasing")
    return nus


def _expression(v):
    """A motion parameter of t, with its analytic derivative."""
    fn = TimeFunction(v)
    fn(0.0)  # the function and its derivative must be finite at t = 0
    fn.dot(0.0)
    return fn


def _semi_axis(v):
    ax = float(v)
    # the other semi-axis is 1/ax, so both must be finite
    if not (0 < ax < np.inf and 1.0 / ax < np.inf):
        raise ValueError("must be positive and finite, with a finite reciprocal")
    return ax


def _translation(p, horizon):
    cx, cy = p["cx"], p["cy"]
    return mo.translation_motion(lambda t: np.array([cx(t), cy(t)]),
                                 lambda t: np.array([cx.dot(t), cy.dot(t)]), horizon)


# motion kind -> (the motion keys it needs, its MotionSpec from the motion
# parameters and the horizon)
_MOTIONS = {
    "identity": ((), lambda p, horizon: mo.identity_motion(horizon)),
    "translation": (("motion.cx", "motion.cy"), _translation),
    "stretch": (("motion.a",),
                lambda p, horizon: mo.stretch_motion(p["a"], p["a"].dot, horizon)),
    "rotating_ellipse": (("motion.ax", "motion.phi"),
                         lambda p, horizon: mo.rotating_ellipse_motion(
                             p["ax"], p["phi"], p["phi"].dot, horizon)),
}

# key -> (RunConfig field, or None for a motion parameter; converter, whose
# ValueError is a bad value; check, returning a problem or None), in the
# order their errors are reported
_KEYS = {
    "scenario.id": ("scenario_id", str, _check_id),
    "motion.kind": ("motion_kind", str, _one_of("motion kind", _MOTIONS)),
    "grid.n_r": ("n_r", int, _require(lambda n: 8 <= n <= 4096, "must be in [8, 4096]")),
    "grid.n_theta": ("n_theta", int, _require(lambda n: 8 <= n <= 4096 and n % 2 == 0,
                                              "must be even and in [8, 4096]")),
    "physics.nu": ("nu", float, _require(lambda v: v >= 0, "must be nonnegative")),
    "physics.T": ("t_final", float,
                  _require(lambda v: 0 < v < np.inf, "must be positive and finite")),
    "physics.dt": ("dt", float, _require(lambda v: v > 0, "must be positive")),
    "initial.preset": ("preset", str, _one_of("preset", INITIAL_PRESETS)),
    "initial.amplitude": ("amplitude", float, _require(np.isfinite, "must be finite")),
    "initial.center": ("center", _pair,
                       _require(lambda c: np.isfinite(c).all(), "must be finite")),
    "initial.radius": ("radius", float,
                       _require(lambda v: 0 < v < np.inf, "must be positive and finite")),
    "initial.snapshot": ("snapshot_path", str, None),
    "output.directory": ("out_dir", str, None),
    "output.snapshot_every": ("snapshot_every", int,
                              _require(lambda v: v >= 0, "must be nonnegative")),
    "physics.nu_list": ("nu_list", _viscosities, None),
    "motion.cx": (None, _expression, None),
    "motion.cy": (None, _expression, None),
    "motion.a": (None, _expression, None),
    "motion.phi": (None, _expression, None),
    "motion.ax": (None, _semi_axis, None),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors = []
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key = value")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = (value.strip().strip('"'), lineno)

    cfg = RunConfig()
    for key, (attr, convert, check) in _KEYS.items():
        if key not in raw:
            continue
        value, lineno = raw[key]
        try:
            converted = convert(value)
        except (ValueError, EvaluationError) as exc:
            what = "expression" if convert is _expression else "value"
            errors.append(f"line {lineno}: bad {what} for {key}: {exc}")
            continue
        problem = check and check(converted)
        if problem:
            errors.append(f"line {lineno}: {key} {problem}")
        elif attr:
            setattr(cfg, attr, converted)
        else:
            cfg.motion_params[key.split(".")[1]] = converted

    # a key that is present but bad has its own error above
    needs = _MOTIONS[cfg.motion_kind][0]
    if not set(needs) <= raw.keys():
        errors.append(f"{cfg.motion_kind} motion needs {' and '.join(needs)}")

    if cfg.t_final / cfg.dt > MAX_STEPS:
        errors.append(f"physics.T / physics.dt is {cfg.t_final / cfg.dt:.3g} steps, "
                      f"more than the {MAX_STEPS:.0e} a run can take")

    if errors:
        raise ConfigError(errors)
    return cfg


def build_motion(cfg: RunConfig) -> mo.MotionSpec:
    horizon = cfg.t_final * (1.0 + 1e-9) + 1e-12
    return _MOTIONS[cfg.motion_kind][1](cfg.motion_params, horizon)


def build_initial(cfg: RunConfig, grid: Grid):
    if cfg.snapshot_path:
        try:
            field_in, _ = read_snapshot(cfg.snapshot_path)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"cannot read snapshot {cfg.snapshot_path!r}: {exc}"]) from exc
        if field_in.grid != grid:
            raise ConfigError([
                f"snapshot grid {field_in.grid} does not match configured grid {grid}"
            ])
        return field_in
    return initial_condition(cfg.preset, grid, amplitude=cfg.amplitude,
                             center=cfg.center, radius=cfg.radius)


def run(cfg: RunConfig, quiet: bool = False) -> int:
    """Execute a config; deterministic outputs, exit status per module docs."""
    def say(msg):
        if not quiet:
            print(msg)

    try:
        m = build_motion(cfg)
        # an overflow or invalid value is a numerical failure, reported once
        # below rather than as a trail of RuntimeWarnings
        with np.errstate(over="raise", invalid="raise"):
            omega0 = build_initial(cfg, Grid(cfg.n_r, cfg.n_theta))
            try:
                os.makedirs(cfg.out_dir, exist_ok=True)
            except (OSError, ValueError) as exc:    # ValueError: a NUL in the path
                raise ConfigError(
                    [f"cannot create output directory {cfg.out_dir!r}: {exc}"]) from exc
            if cfg.is_family:
                return _run_family(cfg, m, omega0, say)
            return _run_single(cfg, m, omega0, say)
    except ConfigError as exc:
        for e in exc.errors:
            say(f"config error: {e}")
        return EXIT_CONFIG
    except NUMERICAL_FAILURES as exc:
        # Python's float arithmetic reports an overflow as a bare errno
        # tuple, and a MemoryError usually says nothing at all
        what = ("overflow in float arithmetic" if isinstance(exc, OverflowError)
                else "out of memory" if isinstance(exc, MemoryError) else exc)
        say(f"numerical failure in scenario {cfg.scenario_id!r}: {what}")
        return EXIT_NUMERICAL


def _run_single(cfg, m, omega0, say) -> int:
    csv_path = os.path.join(cfg.out_dir, f"{cfg.scenario_id}_diagnostics.csv")
    writer = DiagnosticsWriter(csv_path)
    log = RunLog()

    def emit(s):
        rec = record(s)
        writer.write(rec)
        log(s, rec.lr_norms)
        if cfg.snapshot_every and (log.steps % cfg.snapshot_every == 0):
            path = os.path.join(cfg.out_dir, f"{cfg.scenario_id}_{log.steps:06d}.mdf")
            write_snapshot(path, s.omega, s.t)

    try:
        # no local reference to the initial state, so run() can free it
        state = run_steps(create_state(m, omega0, cfg.nu),
                          cfg.dt, cfg.t_final, observer=emit)
        if cfg.snapshot_every:
            write_snapshot(os.path.join(cfg.out_dir, f"{cfg.scenario_id}_final.mdf"),
                           state.omega, state.t)
    finally:
        writer.close()
        gnuplot_stub(csv_path, os.path.join(cfg.out_dir, f"{cfg.scenario_id}.gp"))

    failures = log.failures()
    for f in failures:
        say(f"invariant failure [{cfg.scenario_id}]: {f}")
    say(f"{cfg.scenario_id}: {log.steps} steps to t = {state.t:.6g}, "
        f"{'PASS' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_INVARIANT


def _run_family(cfg, m, omega0, say) -> int:
    scenario = Scenario(cfg.scenario_id, m, omega0, cfg.t_final)
    report = run_family(scenario, cfg.nu_list, cfg.dt)
    csv_path, txt_path = write_family_report(report, cfg.out_dir)
    say(f"family report: {csv_path}, {txt_path}")

    failed = [m for m in report.members if m.error]
    for m in failed:
        say(f"family member nu={m.nu} failed: {m.error}")
    if failed:
        return EXIT_NUMERICAL

    failures = report.failures()
    for f in failures:
        say(f"invariant failure [{cfg.scenario_id}]: {f}")
    say(f"{cfg.scenario_id}: family of {len(cfg.nu_list)}, "
        f"{'PASS' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def packaged_configs():
    """Paths of the checked-in scenario configs, sorted for determinism."""
    root = os.path.join(os.path.dirname(__file__), "configs")
    return sorted(
        os.path.join(root, name) for name in os.listdir(root) if name.endswith(".cfg")
    )


def run_suite(out_dir: str, quiet: bool = False) -> int:
    """Run every packaged config under out_dir; the worst exit status."""
    worst = EXIT_OK
    for path in packaged_configs():
        with open(path) as fh:
            try:
                cfg = parse_config(fh.read())
            except ConfigError as exc:
                for e in exc.errors:
                    print(f"{path}: config error: {e}", file=sys.stderr)
                return EXIT_CONFIG
        cfg.out_dir = os.path.join(out_dir, cfg.scenario_id)
        code = run(cfg, quiet=quiet)
        status = {EXIT_OK: "PASS", EXIT_INVARIANT: "FAIL",
                  EXIT_NUMERICAL: "NUMERICAL-FAIL"}.get(code, "ERROR")
        print(f"[{status}] {os.path.basename(path)}")
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()      # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at os.devnull, so that the interpreter's final flush
        # of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CONFIG


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="mdflow",
        description="Moving-domain ideal-flow solver and estimate verification harness",
    )
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--suite", choices=["acceptance"],
                        help="run a built-in scenario suite")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    if args.suite:
        return run_suite(args.out or "out", quiet=args.quiet)
    if not args.config:
        parser.print_help()
        return EXIT_CONFIG
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        cfg.out_dir = args.out
    return run(cfg, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
