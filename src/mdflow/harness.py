"""Vanishing-viscosity families and their convergence evidence.

One scenario is run at a decreasing sequence of viscosities, each from
initial vorticity mollified by its own viscosity.  The reportable facts
are the ones a vanishing-viscosity limit needs: L^r vorticity norms
uniformly bounded in viscosity, velocity differences between neighboring
family members forming a Cauchy sequence in space-time L^2, and the
inviscid weak-form defect of each viscous run shrinking linearly with
viscosity.  Instead of extracting a subsequence by compactness, one fixed
geometric viscosity sequence is measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diagnostics import R_SET, RunLog, TestField, WeakFormAccumulator, make_test_field
from .grid import Grid, ScalarField, pushforward
from .motion import MotionSpec
from .solver import (NUMERICAL_FAILURES, SolverState, StepConfig, create_state,
                     mollify_initial, run, step_count)


@dataclass
class Scenario:
    """A named run setup shared by every member of a family."""

    name: str
    motion: MotionSpec
    omega0: ScalarField
    t_final: float
    forcing: object = "potential"


@dataclass
class FamilyMember:
    nu: float
    lr_sup: dict                 # r -> sup over time of ||omega||_r
    weak_residual: float         # inviscid weak-form defect of this run
    times: np.ndarray            # decimated snapshot times
    omega_snaps: list            # ScalarField per stored time
    v_snaps: list                # (vt1, vt2) pushforward velocity arrays per time
    log: RunLog = field(default_factory=RunLog)  # per-step estimates
    failure: str | None = None


@dataclass
class FamilyReport:
    scenario: str
    nus: list
    lr_sup: dict                 # r -> list aligned with nus
    cauchy_l2: list              # adjacent-pair space-time L2 velocity distances
    weak_residuals: list         # aligned with nus
    members: list                # FamilyMember records
    failures: dict = field(default_factory=dict)


def _space_time_l2(times, snaps_a, snaps_b, area) -> float:
    sq = [float(np.sum(((a1 - b1) ** 2 + (a2 - b2) ** 2) * area))
          for (a1, a2), (b1, b2) in zip(snaps_a, snaps_b)]
    return float(np.sqrt(np.trapezoid(sq, times)))


def run_family(scenario: Scenario, nus: Sequence[float], grid: Grid,
               cfg: StepConfig, store_every: int = 5,
               test: TestField | None = None) -> FamilyReport:
    """Run the scenario once per viscosity and assemble the family report.

    Each member starts from the initial vorticity mollified by its own
    viscosity.  A member that fails numerically (CFL violation, stalled
    elliptic solve, floating-point error or overflow) is recorded and
    skipped rather than aborting the family; any other exception propagates.
    """
    nus = [float(nu) for nu in nus]
    if any(nu <= 0 for nu in nus) or any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("viscosities must be positive and strictly decreasing")
    if test is None:
        test = make_test_field(grid, scenario.t_final, modulation="linear")

    members = []
    failures = {}
    for nu in nus:
        try:
            members.append(_run_member(scenario, nu, grid, cfg, store_every, test))
        except NUMERICAL_FAILURES as exc:
            failures[nu] = f"{type(exc).__name__}: {exc}"
            members.append(FamilyMember(nu=nu, lr_sup={}, weak_residual=np.nan,
                                        times=np.array([]), omega_snaps=[],
                                        v_snaps=[], failure=str(exc)))

    ok = [m for m in members if m.failure is None]
    cauchy = []
    for a, b in zip(ok[:-1], ok[1:]):
        n = min(len(a.times), len(b.times))
        cauchy.append(_space_time_l2(a.times[:n], a.v_snaps[:n], b.v_snaps[:n],
                                     grid.cell_area))
    return FamilyReport(
        scenario=scenario.name,
        nus=nus,
        lr_sup={r: [m.lr_sup.get(r, np.nan) for m in members] for r in R_SET},
        cauchy_l2=cauchy,
        weak_residuals=[m.weak_residual for m in members],
        members=members,
        failures=failures,
    )


def _run_member(scenario: Scenario, nu: float, grid: Grid, cfg: StepConfig,
                store_every: int, test: TestField) -> FamilyMember:
    omega0 = mollify_initial(scenario.omega0, nu, scenario.motion)
    state = create_state(scenario.motion, grid, omega0, nu, forcing=scenario.forcing)
    acc = WeakFormAccumulator(test, form="reference", include_viscous=False)
    log = RunLog()
    times = []
    omega_snaps = []
    v_snaps = []
    last = step_count(state.t, scenario.t_final, cfg.dt)

    def observe(s: SolverState):
        acc.add(s)
        log(s)
        if log.steps % store_every == 0 or log.steps == last:
            T = s.motion.forward_matrix(s.t)
            times.append(s.t)
            omega_snaps.append(s.omega.copy())
            v_snaps.append(pushforward(T, s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2))

    run(state, cfg, scenario.t_final, observer=observe)
    lr_sup = {r: max(entry[r] for entry in log.lr_series) for r in R_SET}
    return FamilyMember(nu=nu, lr_sup=lr_sup, weak_residual=acc.result(),
                        times=np.array(times), omega_snaps=omega_snaps,
                        v_snaps=v_snaps, log=log)


@dataclass
class LimitCandidate:
    """Smallest-viscosity snapshots promoted to the limit candidate, with
    the distance to the next family member as a per-time error bar."""

    times: np.ndarray
    fields: list                  # ScalarField per time
    error_bars: np.ndarray        # per-time L2 distance to the runner-up
    final_field: ScalarField
    final_error: float


def richardson_limit(report: FamilyReport) -> LimitCandidate:
    """Designate the smallest-viscosity run as the limit candidate."""
    ok = [m for m in report.members if m.failure is None]
    if len(ok) < 2:
        raise ValueError("richardson_limit needs at least two successful family members")
    best, second = ok[-1], ok[-2]
    n = min(len(best.times), len(second.times))
    area = best.omega_snaps[0].grid.cell_area
    bars = np.array([
        float(np.sqrt(np.sum((best.omega_snaps[k].values
                              - second.omega_snaps[k].values) ** 2 * area)))
        for k in range(n)
    ])
    return LimitCandidate(times=best.times[:n], fields=best.omega_snaps[:n],
                          error_bars=bars, final_field=best.omega_snaps[n - 1],
                          final_error=float(bars[-1]))


def fit_residual_model(nus: Sequence[float], residuals: Sequence[float]):
    """Least-squares fit |res| ~ A*nu + B; returns (A, B, relative fit error).

    The inviscid weak form evaluated on a viscous run omits exactly the
    viscosity-scaled gradient pairing, so the defect should be affine in
    viscosity on a fixed grid.
    """
    nus = np.asarray(nus, dtype=float)
    res = np.asarray(residuals, dtype=float)
    mat = np.stack([nus, np.ones_like(nus)], axis=1)
    coef, *_ = np.linalg.lstsq(mat, res, rcond=None)
    fit = mat @ coef
    rel_err = float(np.linalg.norm(fit - res) / np.linalg.norm(res))
    return float(coef[0]), float(coef[1]), rel_err


def write_family_report(report: FamilyReport, directory, stem: str | None = None):
    """Serialize the report as a CSV table plus a plain-text summary."""
    import os

    stem = stem or report.scenario
    csv_path = os.path.join(directory, f"{stem}_family.csv")
    txt_path = os.path.join(directory, f"{stem}_family.txt")
    with open(csv_path, "w", newline="") as fh:
        fh.write("nu,l1p5_sup,l2_sup,l4_sup,linf_sup,weak_residual,cauchy_to_next\n")
        for i, m in enumerate(report.members):
            cauchy = report.cauchy_l2[i] if i < len(report.cauchy_l2) else np.nan
            row = (m.nu,
                   m.lr_sup.get(1.5, np.nan), m.lr_sup.get(2.0, np.nan),
                   m.lr_sup.get(4.0, np.nan), m.lr_sup.get(np.inf, np.nan),
                   m.weak_residual, cauchy)
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    with open(txt_path, "w") as fh:
        fh.write(f"vanishing-viscosity family: {report.scenario}\n")
        fh.write(f"viscosities: {report.nus}\n")
        for r in R_SET:
            fh.write(f"sup_t ||omega||_{r}: {report.lr_sup[r]}\n")
        fh.write(f"adjacent-pair space-time L2 differences: {report.cauchy_l2}\n")
        fh.write(f"inviscid weak residuals: {report.weak_residuals}\n")
        if len(report.nus) >= 3 and not report.failures:
            a, b, rel = fit_residual_model(report.nus, report.weak_residuals)
            fh.write(f"residual fit |res| ~ {a:.6g} * nu + {b:.6g} (rel err {rel:.3f})\n")
        for nu, msg in report.failures.items():
            fh.write(f"FAILED member nu={nu}: {msg}\n")
    return csv_path, txt_path
