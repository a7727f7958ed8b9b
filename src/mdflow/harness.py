"""Vanishing-viscosity families and their convergence evidence.

One scenario is run at a decreasing sequence of viscosities, each from
initial vorticity mollified by its own viscosity.  The reportable facts
are the ones a vanishing-viscosity limit needs: L^r vorticity norms
uniformly bounded in viscosity, velocity differences between neighboring
family members forming a Cauchy sequence in space-time L^2, and the
inviscid weak-form defect of each viscous run shrinking linearly with
viscosity.  Instead of extracting a subsequence by compactness, one fixed
geometric viscosity sequence is measured directly, its members stepped in
lockstep and each fact kept as a running value, not as a series.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diagnostics import R_SET, RunLog, WeakFormAccumulator, make_test_field
from .grid import ScalarField, integrate, pushforward
from .motion import MotionSpec
from .solver import (NUMERICAL_FAILURES, create_state, mollify_initial, step_count,
                     trajectory)


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
        return self.log.lr_sup[r]


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
    recorded and dropped rather than aborting the family; any other
    exception propagates.

    The members run in lockstep, one trajectory each, so the family holds
    one state per member and no series.  At every fifth step and the last,
    each pair of live members adds one slice, the squared L2 distance
    between their pushforward velocities, measured by the later member; a
    Cauchy distance is the trapezoid over its pair's slices.  Keeping every
    pair, m(m - 1)/2 floats a sample, keeps the distance between the
    neighbours of a member that fails mid-run whole.
    """
    nus = [float(nu) for nu in nus]
    if any(nu <= 0 for nu in nus) or any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("viscosities must be positive and strictly decreasing")
    test = make_test_field(scenario.omega0.grid, scenario.t_final)
    area = scenario.omega0.grid.cell_area
    last = step_count(0.0, scenario.t_final, dt)
    live = {i: (_states(scenario, nu, dt), RunLog(), WeakFormAccumulator(test))
            for i, nu in enumerate(nus)}
    errors = {}                  # failed member's index -> "<exception type>: <message>"
    times, slices = [], {}       # the sample times; (i, j), i < j -> that pair's slices
    for k in range(1, last + 1):
        samples = {}             # state index -> {member index: its velocity pair}
        for i, (states, log, acc) in list(live.items()):
            try:
                # the first round takes the initial state too, so that each
                # member's setup runs just before its own first step
                for n in (0, 1) if k == 1 else (k,):
                    s = next(states)
                    acc.add(s)
                    log(s)
                    if n % 5 and n != last:
                        continue
                    T = s.motion.forward_matrix(s.t)
                    b1, b2 = pushforward(T, s.v.u1, s.v.u2)
                    sampled = samples.setdefault(n, {})
                    if not sampled:
                        times.append(s.t)
                    for j, (a1, a2) in sampled.items():
                        slices.setdefault((j, i), []).append(
                            float(np.sum(((a1 - b1) ** 2 + (a2 - b2) ** 2) * area)))
                    sampled[i] = b1, b2
            except NUMERICAL_FAILURES as exc:
                # a MemoryError's message is usually empty
                what = "out of memory" if isinstance(exc, MemoryError) else exc
                errors[i] = f"{type(exc).__name__}: {what}"
                del live[i]

    members = [FamilyMember(nu=nu, error=errors[i]) if i in errors else
               FamilyMember(nu=nu, log=live[i][1], weak_residual=live[i][2].result())
               for i, nu in enumerate(nus)]
    for a, b in zip(live, list(live)[1:]):
        members[a].cauchy_to_next = float(np.sqrt(np.trapezoid(slices[a, b], times)))
    return FamilyReport(scenario=scenario.name, omega0=scenario.omega0, members=members)


def _states(scenario: Scenario, nu: float, dt: float):
    """One member's trajectory, from the initial vorticity mollified by nu."""
    omega0 = mollify_initial(scenario.omega0, nu, scenario.motion)
    yield from trajectory(create_state(scenario.motion, omega0, nu), dt, scenario.t_final)


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
