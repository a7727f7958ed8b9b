"""Every quantity the a priori estimates bound, measured on solver states.

The moving-domain estimates are about L^r vorticity norms (non-increasing
for viscous runs), the velocity-gradient norms they control through the
Calderon-Zygmund inequality, and the boundary terms that ruin the energy
balance (the |v|^2 g flux the analysis cannot control).  Everything is
computed on the reference disk, where the unit-Jacobian map makes the
integrals equal to the physical ones.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import motion as mo
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    boundary_extrapolate,
    gradient,
    integrate,
    pushforward,
    radial_derivative,
    theta_derivative,
)
from .homogenize import closed_form
from .solver import SolverState, boundary_tangency_residual

R_SET = (1.5, 2.0, 4.0, np.inf)
FINITE_R_SET = (1.5, 2.0, 4.0)

CSV_COLUMNS = ("t", "l1p5", "l2", "l4", "linf", "gv1p5", "gv2", "gv4",
               "cz2", "energy", "bflux", "bc_un", "bc_omega", "circulation")


@dataclass
class DiagnosticsRecord:
    t: float
    lr_norms: dict            # r in {1.5, 2, 4, inf} -> ||omega||_r
    grad_v_norms: dict        # finite r -> ||grad v||_r
    cz_ratio: dict            # finite r -> ||grad v||_r / ||omega||_r
    energy: float             # (1/2) ||u||_2^2
    boundary_flux_term: float  # contour integral of (|v|^2/2) g ds
    bc_u_normal: float        # max |u.eta - g| on the moving boundary
    bc_omega: float           # max |omega| trace on the boundary
    circulation: float        # integral of omega

    def check_finite(self):
        vals = [self.t, self.energy, self.boundary_flux_term, self.bc_u_normal,
                self.bc_omega, self.circulation]
        vals += list(self.lr_norms.values()) + list(self.grad_v_norms.values())
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("diagnostics record contains NaN or Inf")


def _physical_gradients(field_values: np.ndarray, grid: Grid, T: np.ndarray):
    """(d/dx1, d/dx2) of a physical-component field sampled at reference nodes."""
    gr = gradient(ScalarField(grid, field_values))
    return pushforward(T.T, gr.u1, gr.u2)


def record(state: SolverState) -> DiagnosticsRecord:
    """Measure one state."""
    g, m, t, rho = state.grid, state.motion, state.t, state.rho
    T = m.forward_matrix(t)

    lr = integrate(state.omega, R_SET)

    v1 = state.u_phys.u1 - rho.u1
    v2 = state.u_phys.u2 - rho.u2
    dv = [_physical_gradients(comp, g, T) for comp in (v1, v2)]
    grad_mag = np.sqrt(sum(d1 ** 2 + d2 ** 2 for d1, d2 in dv))
    gv = integrate(ScalarField(g, grad_mag), FINITE_R_SET)
    cz = {r: (gv[r] / lr[r] if lr[r] > 0 else 0.0) for r in FINITE_R_SET}

    energy = 0.5 * float(np.sum((state.u_phys.u1 ** 2 + state.u_phys.u2 ** 2) * g.cell_area))

    theta = g.angles
    g_bnd = mo.boundary_flux(m, theta, t)
    arc = mo.boundary_arc_factor(m, theta, t)
    normal = mo.boundary_normal(m, theta, t)
    v1_b = boundary_extrapolate(g, v1)
    v2_b = boundary_extrapolate(g, v2)
    u1_b = boundary_extrapolate(g, state.u_phys.u1)
    u2_b = boundary_extrapolate(g, state.u_phys.u2)
    speed2 = v1_b ** 2 + v2_b ** 2
    bflux = float(np.sum(0.5 * speed2 * g_bnd * arc) * g.dtheta)
    u_dot_n = u1_b * normal[:, 0] + u2_b * normal[:, 1]
    bc_un = float(np.max(np.abs(u_dot_n - g_bnd)))
    bc_omega = float(np.max(np.abs(boundary_extrapolate(g, state.omega.values))))

    circulation = float(np.sum(state.omega.values * g.cell_area))

    rec = DiagnosticsRecord(
        t=t, lr_norms=lr, grad_v_norms=gv, cz_ratio=cz, energy=energy,
        boundary_flux_term=bflux, bc_u_normal=bc_un, bc_omega=bc_omega,
        circulation=circulation,
    )
    rec.check_finite()
    return rec


# ---------------------------------------------------------------------------
# monotonicity verdicts
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityVerdict:
    passed: bool
    worst_ratio: float
    first_violation: int | None   # index into the series, None if clean


def monotonicity_report(series: Sequence[dict]) -> dict:
    """Per-exponent check that ||omega(t_{k+1})||_r <= ||omega(t_k)||_r (1 + 1e-10)
    over a series of {r: ||omega||_r}, one entry per state."""
    out = {}
    for r in R_SET:
        worst = 0.0
        first = None
        for k in range(1, len(series)):
            prev = series[k - 1][r]
            cur = series[k][r]
            ratio = cur / prev if prev > 0 else (0.0 if cur == 0 else np.inf)
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-10 and first is None:
                first = k
        out[r] = MonotonicityVerdict(passed=first is None,
                                     worst_ratio=worst, first_violation=first)
    return out


class RunLog:
    """Observer of one run's step-by-step estimates: each state's L^r
    vorticity norms and the running max of the boundary tangency residual.
    The verdict takes its bounds from the states: tangency within 5/n_r^2,
    and L^r monotonicity when the run is viscous."""

    def __init__(self):
        self.lr_series = []        # {r: ||omega||_r} per state
        self.tangency_sup = 0.0
        self._bound, self._monotone = np.inf, False

    def __call__(self, state: SolverState, lr_norms: dict | None = None):
        """Log one state; pass lr_norms when they are already measured."""
        self.lr_series.append(integrate(state.omega, R_SET) if lr_norms is None else lr_norms)
        self.tangency_sup = max(self.tangency_sup, boundary_tangency_residual(state))
        self._bound = 5.0 / state.grid.n_r ** 2
        self._monotone = state.nu > 0

    @property
    def steps(self) -> int:
        return len(self.lr_series) - 1     # the first state logged is the initial one

    def failures(self) -> list:
        """One message per estimate the run broke; empty when all held."""
        out = []
        if self.tangency_sup > self._bound:
            out.append(f"tangency residual {self.tangency_sup:.3e} exceeds {self._bound:.3e}")
        verdicts = monotonicity_report(self.lr_series) if self._monotone else {}
        out += [f"L^{r} monotonicity violated at step {v.first_violation} "
                f"(ratio {v.worst_ratio:.12f})" for r, v in verdicts.items() if not v.passed]
        return out


# ---------------------------------------------------------------------------
# weak-formulation residuals
# ---------------------------------------------------------------------------

@dataclass
class TestField:
    """Divergence-free tangent test field, the (analytically sampled)
    perpendicular gradient of a stream function, times the linear time
    profile h(t) = 1 - t/t_final, which vanishes at the final time."""

    theta: VectorField
    t_final: float


def make_test_field(grid: Grid, t_final: float) -> TestField:
    """The exact perpendicular gradient of the polynomial stream
    (1 - r^2)^2 (1 + y1/2), and the linear profile h(t) = 1 - t/T."""
    y1, y2 = grid.y1, grid.y2
    r2 = y1 ** 2 + y2 ** 2
    base = (1.0 - r2) ** 2
    dbase = -4.0 * (1.0 - r2)
    mod = 1.0 + 0.5 * y1
    d1 = dbase * y1 * mod + base * 0.5
    d2 = dbase * y2 * mod
    return TestField(theta=VectorField(grid, -d2, d1), t_final=t_final)


def _check_tangent(theta: VectorField, rel_tol: float = 1e-2):
    # catches genuinely non-tangent fields (O(1) relative trace); the
    # extrapolated trace of an admissible field carries O(h^3) dust
    g = theta.grid
    cos = np.cos(g.angles)[None, :]
    sin = np.sin(g.angles)[None, :]
    radial = boundary_extrapolate(g, cos * theta.u1 + sin * theta.u2)
    worst = float(np.max(np.abs(radial)))
    scale = max(float(np.max(np.hypot(theta.u1, theta.u2))), 1e-300)
    if worst > rel_tol * scale:
        raise ValueError(
            f"test field is not tangent to the boundary: max |theta.eta| = {worst:.3e} "
            f"against field scale {scale:.3e}"
        )


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The 2x2 matrix M applied to the stacked pair X, shape (2, ...)."""
    return (M @ X.reshape(2, -1)).reshape(X.shape)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


class WeakFormAccumulator:
    """Streams solver states through the time-integrated inviscid weak form
    (the weak-solution identity of the vanishing-viscosity limit), in
    transformed variables: pairings weighted by the metric q_down, with the
    M operator acting on the test field.  A viscous run leaves out the
    viscosity's gradient pairing, so its defect grows linearly in nu.

    Feed every step in order (trapezoidal time quadrature).
    """

    def __init__(self, test: TestField):
        _check_tangent(test.theta)
        self.test = test
        self._theta = None         # area-weighted test field, (2, n_r, n_theta)
        self._dtheta = None        # area-weighted d_j theta_i at [i, j]
        self._prev = None          # (t, integrand value)
        self._integral = 0.0
        self._init_pairing = None

    def add(self, s: SolverState):
        """Add one state's integrand h <n, theta> - <vt, (h' + h M) theta>,
        each pairing weighted by q_down, where vt = T v,
        M theta = (dy/dt . grad) theta + T dS/dt theta and
        n = (T u . grad) vt + (vt . grad) T rho.

        dy/dt = -T (dS/dt y - dS/dt d - S dd/dt) is affine in y, and
        grad (T rho) = T G S is constant (homogenize.closed_form), so only
        vt is differentiated; (T u . grad) reads its polar derivatives.
        """
        g, m, t = s.grid, s.motion, s.t
        if self._theta is None:
            theta = self.test.theta
            area = g.cell_area
            self._theta = np.stack([theta.u1, theta.u2]) * area
            self._dtheta = np.array([[d.u1, d.u2] for d in (
                gradient(ScalarField(g, theta.u1)), gradient(ScalarField(g, theta.u2)))]) * area
        h = 1.0 - t / self.test.t_final
        h_dot = -1.0 / self.test.t_final
        T = m.forward_matrix(t)
        S_dot = m.inverse_matrix_dt(t)
        S, G, _, _ = closed_form(m, t)
        qd = mo.metric_at(m, t).q_down

        w1, w2 = pushforward(-T @ S_dot, g.y1, g.y2)        # dy/dt
        b = T @ (S_dot @ m.offset(t) + S @ m.offset_dt(t))
        w1 += b[0]
        w2 += b[1]
        # area-weighted (h' + h M) theta
        z = _apply(h_dot * np.eye(2) + h * (T @ S_dot), self._theta)
        z += h * (w1 * self._dtheta[:, 0] + w2 * self._dtheta[:, 1])

        u = np.stack([s.u_phys.u1, s.u_phys.u2])
        vt = _apply(T, u - np.stack([s.rho.u1, s.rho.u2]))
        tu = _apply(T, u)                                   # T v + T rho
        cos, sin = np.cos(g.angles), np.sin(g.angles)
        tu_r = cos * tu[0] + sin * tu[1]
        tu_t = (cos * tu[1] - sin * tu[0]) / g.radii[:, None]
        n = tu_r * radial_derivative(g, vt)
        n += tu_t * theta_derivative(g, vt)
        n += _apply(T @ G @ S, vt)

        q_theta = _apply(qd, self._theta)
        val = h * _dot(n, q_theta) - _dot(vt, _apply(qd, z))
        if self._init_pairing is None:
            self._init_pairing = h * _dot(vt, q_theta)

        if self._prev is not None:
            t_prev, val_prev = self._prev
            self._integral += 0.5 * (val + val_prev) * (t - t_prev)
        self._prev = (t, val)

    def result(self) -> float:
        if self._prev is None or self._init_pairing is None:
            raise ValueError("weak residual needs at least two states")
        return abs(self._integral - self._init_pairing)


# ---------------------------------------------------------------------------
# CSV stream and plot stub
# ---------------------------------------------------------------------------

def record_to_row(rec: DiagnosticsRecord) -> str:
    vals = (rec.t,
            rec.lr_norms[1.5], rec.lr_norms[2.0], rec.lr_norms[4.0], rec.lr_norms[np.inf],
            rec.grad_v_norms[1.5], rec.grad_v_norms[2.0], rec.grad_v_norms[4.0],
            rec.cz_ratio[2.0], rec.energy, rec.boundary_flux_term,
            rec.bc_u_normal, rec.bc_omega, rec.circulation)
    return ",".join(format(v, ".17g") for v in vals)


class DiagnosticsWriter:
    """Streaming CSV writer with the pinned column order."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")

    def write(self, rec: DiagnosticsRecord):
        self._fh.write(record_to_row(rec) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def gnuplot_stub(csv_path, out_path):
    """Emit a small gnuplot script for the diagnostics stream (convenience).
    It names the CSV by its file name alone, so it is run from the CSV's
    directory and its bytes do not depend on where that directory is."""
    name = os.path.basename(csv_path)
    script = io.StringIO()
    script.write("set datafile separator ','\n")
    script.write("set key autotitle columnhead\n")
    script.write("set xlabel 't'\n")
    script.write(f"plot '{name}' using 1:3 with lines title 'l2', \\\n")
    script.write(f"     '{name}' using 1:10 with lines title 'energy'\n")
    with open(out_path, "w") as fh:
        fh.write(script.getvalue())
