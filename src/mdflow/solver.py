"""Pulled-back vorticity dynamics on the fixed reference disk.

The scalar vorticity satisfies a pure transport(-diffusion) equation in
physical coordinates, advected by the full velocity u = v + rho.  Pulled
back through the unit-Jacobian map, the transport field becomes
w = (dy/dx)(v + rho - V), which is divergence free and tangent to the
unit circle; the viscous term becomes the constant-metric operator
q^{jk} d_j d_k with a homogeneous Dirichlet condition.

The advective fluxes are built from corner values of a discrete stream
function (the Biot-Savart solution plus a closed-form correction), so
the face fluxes sum to zero around every cell exactly.  Together with
minmod-limited MUSCL reconstruction and backward-Euler diffusion this
keeps every L^r norm of the vorticity non-increasing step by step under
an isotropic metric, which is the estimate the verification suite is
built around; an anisotropic metric's cross terms can raise L^inf on
rough data.

Under an anisotropic metric both elliptic solves of a step are Krylov
solves, and each starts from a guess extrapolated in time, since both
solutions change smoothly from step to step: the stream function from the
last three steps' (t, psi), the diffused vorticity from the advected one
plus the last step's diffusion increment.  A state keeps references to
what these guesses read, and the guesses are built only when a solve
takes the Krylov path; the isotropic fast path never reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import motion as mo
from .elliptic import EllipticError, solve_dirichlet, solve_helmholtz
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    boundary_extrapolate,
    gradient,
    pushforward,
)
from .homogenize import correction_stream_coefficient, homogenization

BESSEL_J01 = 2.4048255576957724      # first zero of J0, float(jn_zeros(0, 1)[0])


class CFLError(RuntimeError):
    """Advective step size violates the CFL limit."""

    def __init__(self, dt, dt_max):
        super().__init__(
            f"dt = {dt:.3e} violates the CFL limit; largest admissible step "
            f"is {dt_max:.3e}"
        )
        self.suggested_dt = dt_max


# What a run reports as a numerical failure rather than a crash: Python's
# float ** raises OverflowError, which is not a FloatingPointError.
NUMERICAL_FAILURES = (CFLError, EllipticError, FloatingPointError, OverflowError)


@dataclass
class StepConfig:
    """Step size and CFL number; each step is MUSCL, then backward Euler."""

    dt: float
    cfl_limit: float = 0.4

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class SolverState:
    """Pulled-back vorticity with its cached elliptic companions."""

    motion: mo.MotionSpec
    grid: Grid
    omega: ScalarField        # pulled-back vorticity
    psi: ScalarField          # pulled-back stream function of v, zero on r=1
    u_phys: VectorField       # physical velocity u = v + rho at reference nodes
    rho: VectorField          # homogenizing field at reference nodes
    t: float
    nu: float
    # references, not copies, for the next step's Krylov guesses; empty on
    # a state from create_state
    psi_history: tuple = ()                # (t, psi) of the last two states before this one
    omega_star: ScalarField | None = None  # advected vorticity this state's omega diffused from


def biot_savart(omega: ScalarField, m: mo.MotionSpec, t: float, psi0=None):
    """Velocity recovery: pulled-back Poisson solve plus chain rule.

    Solves q^{jk} d_j d_k psi = omega with psi = 0 on r = 1 (the physical
    Laplacian of the stream function), then v = grad_x^perp psi expressed
    through the reference gradient.  psi0 is the Krylov initial guess, or a
    zero-argument callable that builds it (see solve_dirichlet).  Returns
    (psi, v).
    """
    md = mo.metric_at(m, t)
    psi = solve_dirichlet(md.q_up, omega, x0=psi0)
    v = _perp_from_stream(psi, m.forward_matrix(t))
    return psi, v


def _perp_from_stream(psi: ScalarField, T: np.ndarray) -> VectorField:
    """v = J T^T grad_y psi: the physical perpendicular gradient."""
    gr = gradient(psi)
    p1, p2 = pushforward(T.T, gr.u1, gr.u2)   # d psi / d x
    return VectorField(psi.grid, -p2, p1)


def boundary_tangency_residual(state: SolverState) -> float:
    """max |w.e_r| on r = 1 for the reference transport field
    w = (dy/dx)(u - V) with u = v + rho, extrapolated from the node values.

    The boundary terms cancel (v.eta = 0, rho.eta = g, V.eta = g), so w is
    tangent to the unit circle and the residual measures discretization
    error alone.  The extrapolation reads the three outer rings only, so w
    is evaluated there alone.
    """
    m, g, t = state.motion, state.grid, state.t
    rings = slice(-3, None)
    pts = np.stack([g.y1[rings], g.y2[rings]], axis=-1)
    vel = mo.material_velocity(m, pts.reshape(-1, 2), t).reshape(pts.shape)
    d1 = state.u_phys.u1[rings] - vel[..., 0]
    d2 = state.u_phys.u2[rings] - vel[..., 1]
    w1, w2 = pushforward(m.forward_matrix(t), d1, d2)
    cos = np.cos(g.angles)[None, :]
    sin = np.sin(g.angles)[None, :]
    w_r = cos * w1 + sin * w2
    return float(np.max(np.abs(boundary_extrapolate(g, w_r))))


# ---------------------------------------------------------------------------
# corner stream function and exactly divergence-free face fluxes
# ---------------------------------------------------------------------------

def corner_stream(state: SolverState) -> np.ndarray:
    """Stream function of the transport field at cell corners.

    w = perp-grad of (psi + beta) where beta is the closed-form stream of
    the pushforward of rho - V, a radial quadratic for every affine
    motion, constant on the boundary so the boundary fluxes vanish
    exactly.  Returns an (n_r + 1, n_theta) array indexed by edge radius
    and theta-face.
    """
    coeff = correction_stream_coefficient(state.motion, state.t)
    g = state.grid
    spec = np.fft.rfft(state.psi.values, axis=1)
    edge = np.zeros((g.n_r + 1, spec.shape[1]), dtype=complex)
    edge[1:-1] = 0.5 * (spec[:-1] + spec[1:])
    edge[0, 0] = (15.0 * spec[0, 0] - 10.0 * spec[1, 0] + 3.0 * spec[2, 0]) / 8.0
    # edge[-1] stays 0: homogeneous Dirichlet trace of psi
    shift = np.exp(1j * g.modes * (0.5 * g.dtheta))
    edge = edge * shift
    if g.n_theta % 2 == 0:
        edge[:, -1] = 0.0  # half-cell shift of the Nyquist mode is not real-representable
    corners = np.fft.irfft(edge, n=g.n_theta, axis=1)
    corners += coeff * (g.edge_radii[:, None] ** 2)
    corners[-1] = coeff  # exact constant on r = 1: zero boundary flux
    return corners


def face_fluxes(state: SolverState):
    """Volume fluxes through radial and angular faces, (Q_r, Q_t).

    Q_r[k, j]: flux through the face at edge radius k in cell column j,
    positive outward; Q_t[i, j]: flux through the theta-face between
    cells (i, j) and (i, j+1), positive counterclockwise.  Built from
    corner stream differences for every affine motion, so they telescope
    to zero around every cell and vanish on the boundary exactly.
    """
    corners = corner_stream(state)
    q_r = np.roll(corners, 1, axis=1) - corners
    q_t = corners[1:] - corners[:-1]
    return q_r, q_t


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _muscl_tendency(g: Grid, omega: np.ndarray, q_r: np.ndarray, q_t: np.ndarray,
                    dirichlet: bool) -> np.ndarray:
    """Flux-form advection with minmod-limited linear reconstruction."""
    half = g.n_theta // 2
    # radial slopes (per dr): across-origin ghost inside, boundary-aware outside
    d_in = np.empty_like(omega)
    d_in[1:] = omega[1:] - omega[:-1]
    d_in[0] = omega[0] - np.roll(omega[0], half)
    d_out = np.empty_like(omega)
    d_out[:-1] = omega[1:] - omega[:-1]
    d_out[-1] = -2.0 * omega[-1] if dirichlet else d_in[-1]
    slope_r = _minmod(d_in, d_out)

    # face states at interior radial faces k = 1..n_r-1
    up_state = omega[:-1] + 0.5 * slope_r[:-1]
    down_state = omega[1:] - 0.5 * slope_r[1:]
    face_r = np.where(q_r[1:-1] > 0.0, up_state, down_state)
    flux_r = np.zeros_like(q_r)
    flux_r[1:-1] = q_r[1:-1] * face_r

    # angular slopes (per dtheta), periodic
    d_minus = omega - np.roll(omega, 1, axis=1)
    d_plus = np.roll(omega, -1, axis=1) - omega
    slope_t = _minmod(d_minus, d_plus)
    left = omega + 0.5 * slope_t
    right = np.roll(omega - 0.5 * slope_t, -1, axis=1)
    face_t = np.where(q_t > 0.0, left, right)
    flux_t = q_t * face_t

    div = (flux_r[1:] - flux_r[:-1]) + (flux_t - np.roll(flux_t, 1, axis=1))
    return -div / g.cell_area


def cfl_timestep(state: SolverState, q_r: np.ndarray, q_t: np.ndarray,
                 cfl_limit: float) -> float:
    """Largest admissible dt for the per-cell advective CFL condition."""
    g = state.grid
    vel_r = np.zeros_like(q_r)
    lengths = g.edge_radii[:, None] * g.dtheta
    vel_r[1:] = np.abs(q_r[1:]) / lengths[1:]
    vel_t = np.abs(q_t) / g.dr
    rate_r = np.maximum(vel_r[:-1], vel_r[1:]) / g.dr
    rate_t = np.maximum(vel_t, np.roll(vel_t, 1, axis=1)) / (g.radii[:, None] * g.dtheta)
    rate = float(np.max(rate_r + rate_t))
    if rate == 0.0:
        return np.inf
    return cfl_limit / rate


def step(state: SolverState, cfg: StepConfig) -> SolverState:
    """Advance one step: MUSCL advection, backward-Euler diffusion, refresh.

    Lie splitting, first order in time.  For nu = 0 the diffusion stage is
    skipped and no vorticity boundary condition is imposed (the transport
    field is tangent, so the boundary is characteristic).
    """
    m, g = state.motion, state.grid
    dt = cfg.dt
    t_new = state.t + dt
    m.check_time(t_new)
    dirichlet = state.nu > 0.0

    q_r, q_t = face_fluxes(state)
    dt_max = cfl_timestep(state, q_r, q_t, cfg.cfl_limit)
    if dt > dt_max:
        raise CFLError(dt, dt_max)

    w0 = state.omega.values
    advected = omega_new = ScalarField(g, w0 + dt * _muscl_tendency(g, w0, q_r, q_t, dirichlet))
    if dirichlet:
        q_up = mo.metric_at(m, t_new).q_up
        omega_new = solve_helmholtz(q_up, advected, state.nu * dt,
                                    x0=partial(_diffusion_guess, state, advected, dt))
    omega_new.check_finite()
    return _refresh(m, g, omega_new, t_new, state.nu,
                    psi0=partial(_stream_guess, state, t_new),
                    psi_history=(*state.psi_history, (state.t, state.psi))[-2:],
                    omega_star=advected)


def _stream_guess(state: SolverState, t: float) -> ScalarField:
    """psi at t extrapolated in time: the Lagrange polynomial through the
    state's psi and the two before it at their actual times, so quadratic,
    or linear or constant while the history is short."""
    psi = state.psi.values
    points = dict((*state.psi_history, (state.t, state.psi)))   # one psi per time
    change = np.zeros_like(psi)                                 # guess - psi
    for ti, field in points.items():
        if field is not state.psi:
            weight = math.prod((t - tj) / (ti - tj) for tj in points if tj != ti)
            change += weight * (field.values - psi)
    return ScalarField(state.grid, psi + change)


def _diffusion_guess(state: SolverState, advected: ScalarField, dt: float) -> ScalarField:
    """The diffused vorticity guessed as the advected one plus the last
    step's diffusion increment omega_n - omega*_n, scaled by dt / dt_prev;
    the advected vorticity alone on a state's first step (or after a step
    too short to move t)."""
    if state.omega_star is None:
        return advected
    dt_prev = state.t - state.psi_history[-1][0]
    if dt_prev == 0.0:
        return advected
    return ScalarField(state.grid, advected.values
                       + (dt / dt_prev) * (state.omega.values - state.omega_star.values))


def _refresh(m: mo.MotionSpec, g: Grid, omega: ScalarField, t: float, nu: float,
             psi0=None, psi_history=(), omega_star=None) -> SolverState:
    psi, v = biot_savart(omega, m, t, psi0=psi0)
    rho = homogenization(m, t, g)
    u = VectorField(g, v.u1 + rho.u1, v.u2 + rho.u2)
    return SolverState(motion=m, grid=g, omega=omega, psi=psi, u_phys=u,
                       rho=rho, t=t, nu=nu,
                       psi_history=psi_history, omega_star=omega_star)


def create_state(m: mo.MotionSpec, grid: Grid, omega0: ScalarField, nu: float,
                 t: float = 0.0) -> SolverState:
    """Assemble a consistent state from initial vorticity on the reference grid.

    The run has no body force that reaches the vorticity: a potential force
    is absorbed by the pressure, so the vorticity has no source term.
    """
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")
    m.check_time(t)
    omega0.check_finite()
    return _refresh(m, grid, omega0.copy(), t, nu)


def mollify_initial(omega0: ScalarField, nu: float, m: mo.MotionSpec) -> ScalarField:
    """Dirichlet heat semigroup applied for time nu on the initial domain.

    Smooths rough data without increasing any L^r norm; implemented with
    backward-Euler substeps of size nu/8 of the t = 0 pulled-back operator.
    """
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")
    if nu == 0.0:
        return omega0.copy()
    q_up = mo.metric_at(m, 0.0).q_up
    out = omega0.copy()
    # backward Euler is first order: the relative bias on the slowest mode is
    # about (lambda_1 nu)^2 / (2 n); grow n with nu to keep it below 0.3%
    n_sub = max(8, int(np.ceil((BESSEL_J01 ** 2 * nu) ** 2 / 0.006)))
    for _ in range(n_sub):
        out = solve_helmholtz(q_up, out, nu / n_sub, x0=out)
    return out


def step_count(t0: float, t_final: float, dt: float) -> int:
    """Steps run() takes from t0 to t_final: full steps of dt, then a last
    one that ends on t_final.  A remainder under 1e-9 of a step joins the
    last step instead of making a step of its own, so every horizon past
    t0, however short, takes at least one step and ends on t_final."""
    if t_final <= t0:
        return 0
    return max(1, math.ceil((t_final - t0) / dt - 1e-9))


def run(state: SolverState, cfg: StepConfig, t_final: float,
        observer=None) -> SolverState:
    """Step to t_final and return the final state.

    The last of the step_count steps is resized to land on t_final.  An
    observer callable receives every state, including the initial one.
    """
    if observer is not None:
        observer(state)
    n = step_count(state.t, t_final, cfg.dt)
    for k in range(n):
        dt = cfg.dt if k < n - 1 else t_final - state.t
        cfg_step = cfg if dt == cfg.dt else replace(cfg, dt=dt)
        state = step(state, cfg_step)
        if observer is not None:
            observer(state)
    return state


# ---------------------------------------------------------------------------
# named initial-data presets
# ---------------------------------------------------------------------------

def initial_condition(name: str, grid: Grid, amplitude: float = 1.0,
                      center=(0.0, 0.0), radius: float = 0.5,
                      power: int = 2) -> ScalarField:
    """Build one of the named initial vorticity presets on the grid."""
    r2 = grid.y1 ** 2 + grid.y2 ** 2
    if name == "bessel_mode":
        from scipy.special import j0     # only this preset needs scipy.special
        vals = amplitude * j0(BESSEL_J01 * np.sqrt(r2))
    elif name == "radial_poly":
        vals = amplitude * (1.0 - r2) ** power
    elif name == "offset_bump":
        s2 = ((grid.y1 - center[0]) ** 2 + (grid.y2 - center[1]) ** 2) / radius ** 2
        vals = np.zeros_like(grid.y1)
        inside = s2 < 1.0
        vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    elif name == "disk_indicator":
        vals = amplitude * (r2 < radius ** 2).astype(float)
    else:
        raise ValueError(f"unknown initial-data preset {name!r}")
    return ScalarField(grid, vals)


INITIAL_PRESETS = ("bessel_mode", "radial_poly", "offset_bump", "disk_indicator")
