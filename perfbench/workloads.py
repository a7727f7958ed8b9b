"""Seeded config-text generator for the benchmark workloads.

Each workload is one packaged scenario config.  Seed 0 reproduces that
config key for key, except that ``physics.T`` is shortened to the
benchmark's step count (and the output directory points into the run's
scratch area).  Any other seed shifts the initial-data amplitude, the bump
centre and radius, and the initial ellipse phase within ranges that keep
the same solver path, the same step count and a passing CFL check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # packaged config it is derived from
    motion: tuple          # (key, value) pairs of the motion block
    physics: tuple         # (key, value) pairs of the physics block, without T
    dt: float
    steps: int             # time steps per member at the full grid
    preset: str
    amplitude: float
    center: tuple | None   # None: the preset ignores centre and radius
    radius: float | None
    snapshot_every: int = 0

    @property
    def members(self) -> int:
        """Runs of the solver per program run: one per family viscosity."""
        nu_list = dict(self.physics).get("physics.nu_list")
        return len(nu_list.split(",")) if nu_list else 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="disk_viscous",
            scenario="bessel_decay",
            motion=(("motion.kind", "identity"),),
            physics=(("physics.nu", "0.01"),),
            dt=0.001, steps=300,
            preset="bessel_mode", amplitude=1.0, center=None, radius=None,
            snapshot_every=250,
        ),
        Workload(
            name="ellipse_viscous",
            scenario="ellipse_spin",
            motion=(("motion.kind", "rotating_ellipse"),
                    ("motion.ax", "1.4142135623730951"),
                    ("motion.phi", "t")),
            physics=(("physics.nu", "0.01"),),
            dt=0.0025, steps=30,
            preset="offset_bump", amplitude=1.0, center=(0.0, 0.0), radius=0.7,
        ),
        Workload(
            name="translate_inviscid",
            scenario="translation_covariance",
            motion=(("motion.kind", "translation"),
                    ("motion.cx", "t"),
                    ("motion.cy", "0")),
            physics=(("physics.nu", "0.0"),),
            dt=0.0005, steps=300,
            preset="offset_bump", amplitude=0.5, center=(0.3, 0.0), radius=0.4,
        ),
        Workload(
            name="stretch_family",
            scenario="stretch_family",
            motion=(("motion.kind", "stretch"),
                    ("motion.a", "0.2*t")),
            physics=(("physics.nu_list", "0.01,0.001,0.0001"),),
            dt=0.002, steps=40,
            preset="offset_bump", amplitude=1.0, center=(0.0, 0.0), radius=0.7,
        ),
    )
}


def _fmt(x: float) -> str:
    return repr(float(x))


def config_text(name: str, seed: int, out_dir: str, *, grid=(128, 256),
                steps: int | None = None) -> str:
    """Config text for one workload run; the same seed gives the same text."""
    w = WORKLOADS[name]
    steps = w.steps if steps is None else steps
    amplitude, center, radius, phase = w.amplitude, w.center, w.radius, 0.0
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{name}:{seed}")
        amplitude *= rng.uniform(0.9, 1.1)
        if center is not None:
            # a bump centred on the origin puts its velocity on the tiny first
            # ring of cells off centre, so the CFL margin limits the shift
            center = (center[0] + rng.uniform(-0.01, 0.01),
                      center[1] + rng.uniform(-0.01, 0.01))
            radius *= rng.uniform(0.95, 1.05)
        phase = rng.uniform(0.0, 0.2)

    lines = [f"# benchmark workload {name} (from {w.scenario}), seed {seed}",
             f"scenario.id = {w.scenario}"]
    for key, value in w.motion:
        if key == "motion.phi" and phase:
            value = f"{value} + {_fmt(phase)}"
        lines.append(f"{key} = {value}")
    lines += [f"grid.n_r = {grid[0]}", f"grid.n_theta = {grid[1]}"]
    lines += [f"{key} = {value}" for key, value in w.physics]
    lines += [f"physics.T = {_fmt(round(steps * w.dt, 12))}",
              f"physics.dt = {_fmt(w.dt)}",
              f"initial.preset = {w.preset}"]
    if amplitude != 1.0:
        lines.append(f"initial.amplitude = {_fmt(amplitude)}")
    if center is not None:
        lines += [f"initial.center = {_fmt(center[0])},{_fmt(center[1])}",
                  f"initial.radius = {_fmt(radius)}"]
    if w.snapshot_every:
        lines.append(f"output.snapshot_every = {w.snapshot_every}")
    lines.append(f"output.directory = {out_dir}")
    return "\n".join(lines) + "\n"
