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
from .grid import ScalarField, integrate, pushforward
from .motion import MotionSpec
from .solver import (NUMERICAL_FAILURES, SolverState, create_state, mollify_initial, run,
                     step_count)


@dataclass
class Scenario:
    """A named run setup shared by every member of a family."""

    name: str
    motion: MotionSpec
    omega0: ScalarField
    t_final: float


@dataclass
class FamilyMember:
    """One viscosity's run, with the times of every fifth step and the
    last.  `v_snaps` holds the pushforward velocity pairs only while
    the next member measures its Cauchy distance against them, and is empty
    once `run_family` returns."""

    nu: float
    lr_sup: dict                 # r -> sup over time of ||omega||_r
    weak_residual: float         # inviscid weak-form defect of this run
    times: np.ndarray            # decimated snapshot times
    v_snaps: list                # (vt1, vt2) pushforward velocity arrays per time, or empty
    log: RunLog = field(default_factory=RunLog)  # per-step estimates
    cauchy_to_next: float = np.nan  # space-time L2 distance to the next successful member


@dataclass
class FamilyReport:
    scenario: str
    nus: list
    omega0: ScalarField          # the unmollified initial vorticity, which bounds every member
    lr_sup: dict                 # r -> list aligned with nus
    cauchy_l2: list              # adjacent-pair space-time L2 velocity distances
    weak_residuals: list         # aligned with nus
    members: list                # FamilyMember records
    errors: dict = field(default_factory=dict)   # nu -> numerical failure of that member

    def failures(self) -> list:
        """One message per estimate the family broke; empty when all held:
        each member's own (see RunLog.failures), then the uniform L^r bound
        sup_t ||omega_nu||_r <= ||omega_0||_r + 1e-6 over every nu, then the
        decrease of the Cauchy distances between neighboring members.  The
        norms of omega_0 are taken here, under the caller's floating-point
        error state."""
        out = [f"nu={member.nu}: {f}" for member in self.members for f in member.log.failures()]
        for r, sups in self.lr_sup.items():
            bound = integrate(self.omega0, r) + 1e-6
            if any(s > bound for s in sups):
                out.append(f"uniform L^{r} bound violated: sup {max(sups):.8f} > {bound:.8f}")
        if any(a <= b for a, b in zip(self.cauchy_l2, self.cauchy_l2[1:])):
            out.append(f"Cauchy differences not decreasing: {self.cauchy_l2}")
        return out


def run_family(scenario: Scenario, nus: Sequence[float], dt: float) -> FamilyReport:
    """Run the scenario once per viscosity, with steps of dt, and assemble
    the family report.

    Each member starts from the initial vorticity mollified by its own
    viscosity.  A member that fails numerically (CFL violation, stalled
    elliptic solve, floating-point error, overflow or lack of memory) is
    recorded and skipped rather than aborting the family; any other
    exception propagates.

    The Cauchy distances are streamed: each member compares its velocity,
    every fifth step, with the previous successful member's snapshot at the
    same index, then drops that member's snapshots.  So at most two
    members' velocity series are held at once, and no vorticity snapshots
    at all.
    """
    nus = [float(nu) for nu in nus]
    if any(nu <= 0 for nu in nus) or any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("viscosities must be positive and strictly decreasing")
    test = make_test_field(scenario.omega0.grid, scenario.t_final)

    members = []
    errors = {}
    cauchy = []
    prev = None                  # the last successful member
    for i, nu in enumerate(nus):
        try:
            member, dist = _run_member(scenario, nu, dt, test, prev,
                                       keep_v=i < len(nus) - 1)
        except NUMERICAL_FAILURES as exc:
            # a MemoryError's message is usually empty
            what = "out of memory" if isinstance(exc, MemoryError) else exc
            errors[nu] = f"{type(exc).__name__}: {what}"
            members.append(FamilyMember(nu=nu, lr_sup={}, weak_residual=np.nan,
                                        times=np.array([]), v_snaps=[]))
            continue
        if prev is not None:
            prev.cauchy_to_next = dist
            prev.v_snaps = []
            cauchy.append(dist)
        members.append(member)
        prev = member
    if prev is not None:
        prev.v_snaps = []
    return FamilyReport(
        scenario=scenario.name,
        nus=nus,
        omega0=scenario.omega0,
        lr_sup={r: [m.lr_sup.get(r, np.nan) for m in members] for r in R_SET},
        cauchy_l2=cauchy,
        weak_residuals=[m.weak_residual for m in members],
        members=members,
        errors=errors,
    )


def _run_member(scenario: Scenario, nu: float, dt: float, test: TestField,
                prev: FamilyMember | None, keep_v: bool):
    """Run one member; return it with its space-time L2 velocity distance to
    `prev` (None without one).  Each stored step adds one slice, the
    squared L2 distance to prev's snapshot at the same index; the
    trapezoid over prev's times is taken at the end."""
    omega0 = mollify_initial(scenario.omega0, nu, scenario.motion)
    state = create_state(scenario.motion, omega0, nu)
    acc = WeakFormAccumulator(test)
    log = RunLog()
    times = []
    v_snaps = []
    against = prev.v_snaps if prev is not None else []
    slices = []                  # squared L2 distance to `against`, per stored step
    area = omega0.grid.cell_area
    last = step_count(state.t, scenario.t_final, dt)

    def observe(s: SolverState):
        acc.add(s)
        log(s)
        if log.steps % 5 == 0 or log.steps == last:
            k = len(times)
            times.append(s.t)
            if not keep_v and k >= len(against):
                return
            T = s.motion.forward_matrix(s.t)
            b1, b2 = pushforward(T, s.u_phys.u1 - s.rho.u1, s.u_phys.u2 - s.rho.u2)
            if keep_v:
                v_snaps.append((b1, b2))
            if k < len(against):
                a1, a2 = against[k]
                slices.append(float(np.sum(((a1 - b1) ** 2 + (a2 - b2) ** 2) * area)))

    run(state, dt, scenario.t_final, observer=observe)
    dist = None
    if prev is not None:
        dist = float(np.sqrt(np.trapezoid(slices, prev.times[:len(slices)])))
    lr_sup = {r: max(entry[r] for entry in log.lr_series) for r in R_SET}
    member = FamilyMember(nu=nu, lr_sup=lr_sup, weak_residual=acc.result(),
                          times=np.array(times), v_snaps=v_snaps, log=log)
    return member, dist


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


def write_family_report(report: FamilyReport, directory):
    """Serialize the report as a CSV table plus a plain-text summary, named
    after the scenario."""
    import os

    csv_path = os.path.join(directory, f"{report.scenario}_family.csv")
    txt_path = os.path.join(directory, f"{report.scenario}_family.txt")
    with open(csv_path, "w", newline="") as fh:
        fh.write("nu,l1p5_sup,l2_sup,l4_sup,linf_sup,weak_residual,cauchy_to_next\n")
        for m in report.members:
            row = (m.nu,
                   m.lr_sup.get(1.5, np.nan), m.lr_sup.get(2.0, np.nan),
                   m.lr_sup.get(4.0, np.nan), m.lr_sup.get(np.inf, np.nan),
                   m.weak_residual, m.cauchy_to_next)
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    with open(txt_path, "w") as fh:
        fh.write(f"vanishing-viscosity family: {report.scenario}\n")
        fh.write(f"viscosities: {report.nus}\n")
        for r in R_SET:
            fh.write(f"sup_t ||omega||_{r}: {report.lr_sup[r]}\n")
        fh.write(f"adjacent-pair space-time L2 differences: {report.cauchy_l2}\n")
        fh.write(f"inviscid weak residuals: {report.weak_residuals}\n")
        if len(report.nus) >= 3 and not report.errors:
            a, b, rel = fit_residual_model(report.nus, report.weak_residuals)
            fh.write(f"residual fit |res| ~ {a:.6g} * nu + {b:.6g} (rel err {rel:.3f})\n")
        for nu, msg in report.errors.items():
            fh.write(f"FAILED member nu={nu}: {msg}\n")
    return csv_path, txt_path
