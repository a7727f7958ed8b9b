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

import os
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
    """One viscosity's run.  A member that failed numerically carries the
    failure in `error`, an empty log and nan for its numbers."""

    nu: float
    log: RunLog = field(default_factory=RunLog)  # per-step estimates
    weak_residual: float = np.nan   # inviscid weak-form defect of this run
    cauchy_to_next: float = np.nan  # space-time L2 distance to the next successful member
    error: str = ""                 # "<exception type>: <message>" of a failed member

    def lr_sup(self, r) -> float:
        """sup over time of ||omega||_r; nan for a failed member."""
        return max((entry[r] for entry in self.log.lr_series), default=np.nan)


@dataclass
class FamilyReport:
    scenario: str
    omega0: ScalarField          # the unmollified initial vorticity, which bounds every member
    members: list                # FamilyMember records, one per viscosity, largest first

    def failures(self) -> list:
        """One message per estimate the family broke; empty when all held:
        each member's own (see RunLog.failures), then the uniform L^r bound
        sup_t ||omega_nu||_r <= ||omega_0||_r + 1e-6 over the successful
        members, then the decrease of the Cauchy distances between
        neighboring successful members.  The norms of omega_0 are taken
        here, under the caller's floating-point error state."""
        out = [f"nu={member.nu}: {f}" for member in self.members for f in member.log.failures()]
        for r in R_SET:
            bound = integrate(self.omega0, r) + 1e-6
            over = [s for s in (m.lr_sup(r) for m in self.members if not m.error) if s > bound]
            if over:
                out.append(f"uniform L^{r} bound violated: sup {max(over):.8f} > {bound:.8f}")
        cauchy = _cauchy(self.members)
        if any(a <= b for a, b in zip(cauchy, cauchy[1:])):
            out.append(f"Cauchy differences not decreasing: {cauchy}")
        return out


def _cauchy(members: list) -> list:
    """The adjacent-pair distances between successful members: each one's
    distance to the next, bar the last, which has no next member."""
    ok = [m for m in members if not m.error]
    return [m.cauchy_to_next for m in ok[:-1]]


def run_family(scenario: Scenario, nus: Sequence[float], dt: float) -> FamilyReport:
    """Run the scenario once per viscosity, with steps of dt, and assemble
    the family report.

    Each member starts from the initial vorticity mollified by its own
    viscosity.  A member that fails numerically (CFL violation, stalled
    elliptic solve, floating-point error, overflow or lack of memory) is
    recorded and skipped rather than aborting the family; any other
    exception propagates.

    The Cauchy distances are streamed: each member compares its velocity,
    every fifth step, with the previous successful member's series at the
    same index, and its own series replaces that one once it succeeds.  So
    at most two members' velocity series are held at once, none once the
    family returns, and no vorticity snapshots at all.
    """
    nus = [float(nu) for nu in nus]
    if any(nu <= 0 for nu in nus) or any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("viscosities must be positive and strictly decreasing")
    test = make_test_field(scenario.omega0.grid, scenario.t_final)

    members = []
    prev = None                  # the last successful member
    series = None                # its (times, velocity pairs)
    for i, nu in enumerate(nus):
        try:
            member, dist, own = _run_member(scenario, nu, dt, test, series,
                                            keep_v=i < len(nus) - 1)
        except NUMERICAL_FAILURES as exc:
            # a MemoryError's message is usually empty
            what = "out of memory" if isinstance(exc, MemoryError) else exc
            members.append(FamilyMember(nu=nu, error=f"{type(exc).__name__}: {what}"))
            continue
        if prev is not None:
            prev.cauchy_to_next = dist
        members.append(member)
        prev, series = member, own
    return FamilyReport(scenario=scenario.name, omega0=scenario.omega0, members=members)


def _run_member(scenario: Scenario, nu: float, dt: float, test: TestField,
                prev: tuple | None, keep_v: bool):
    """Run one member; return it, its space-time L2 velocity distance to
    the previous successful member's series `prev` (None without one), and
    its own series: the times of every fifth step and the last, with the
    pushforward velocity pairs at them when keep_v.  Each stored step adds
    one slice, the squared L2 distance to prev's pair at the same index;
    the trapezoid over prev's times is taken at the end."""
    omega0 = mollify_initial(scenario.omega0, nu, scenario.motion)
    state = create_state(scenario.motion, omega0, nu)
    acc = WeakFormAccumulator(test)
    log = RunLog()
    times = []
    v_snaps = []
    prev_times, against = prev if prev is not None else ([], [])
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
        dist = float(np.sqrt(np.trapezoid(slices, prev_times[:len(slices)])))
    member = FamilyMember(nu=nu, log=log, weak_residual=acc.result())
    return member, dist, (times, v_snaps)


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
    members = report.members
    failed = [m for m in members if m.error]
    csv_path = os.path.join(directory, f"{report.scenario}_family.csv")
    txt_path = os.path.join(directory, f"{report.scenario}_family.txt")
    with open(csv_path, "w", newline="") as fh:
        fh.write("nu,l1p5_sup,l2_sup,l4_sup,linf_sup,weak_residual,cauchy_to_next\n")
        for m in members:
            row = (m.nu, *(m.lr_sup(r) for r in R_SET), m.weak_residual, m.cauchy_to_next)
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    with open(txt_path, "w") as fh:
        fh.write(f"vanishing-viscosity family: {report.scenario}\n")
        fh.write(f"viscosities: {[m.nu for m in members]}\n")
        for r in R_SET:
            fh.write(f"sup_t ||omega||_{r}: {[m.lr_sup(r) for m in members]}\n")
        fh.write(f"adjacent-pair space-time L2 differences: {_cauchy(members)}\n")
        residuals = [m.weak_residual for m in members]
        fh.write(f"inviscid weak residuals: {residuals}\n")
        if len(members) >= 3 and not failed:
            a, b, rel = fit_residual_model([m.nu for m in members], residuals)
            fh.write(f"residual fit |res| ~ {a:.6g} * nu + {b:.6g} (rel err {rel:.3f})\n")
        for m in failed:
            fh.write(f"FAILED member nu={m.nu}: {m.error}\n")
    return csv_path, txt_path
