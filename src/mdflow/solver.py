"""Pulled-back vorticity dynamics on the fixed reference disk.

The scalar vorticity satisfies a pure transport(-diffusion) equation in
physical coordinates, advected by the full velocity u = v + rho.  Pulled
back through the unit-Jacobian map, the transport field becomes
w = (dy/dx)(v + rho - V), which is divergence free and tangent to the
unit circle; the viscous term becomes the constant-metric operator
q^{jk} d_j d_k with a homogeneous Dirichlet condition.  The pushforward
of rho - V is the perpendicular gradient of a radial quadratic, so its
closed-form coefficient is all a step reads of the homogenization: a
state keeps the Biot-Savart velocity v, tangent to the moving boundary,
and an observer that needs u builds it as v + rho.

The advective fluxes are built from corner values of a discrete stream
function (the Biot-Savart solution plus a closed-form correction), so
the face fluxes sum to zero around every cell exactly.  Together with
minmod-limited MUSCL reconstruction and backward-Euler diffusion this
keeps the L^2 norm of the vorticity non-increasing step by step, which is
the estimate the verification suite is built around.  Backward Euler is
not a discrete maximum principle: its resolvent has negative entries, so
on rough data at small nu dt the L^inf norm can grow, under the isotropic
metric (whose angular term is spectral) as well as under an anisotropic
one with cross terms.

Under an anisotropic metric both elliptic solves of a step are Krylov
solves, and each starts from a guess extrapolated in time, since both
solutions change smoothly from step to step: the stream function from the
last three steps' (t, psi), the diffused vorticity from the advected one
plus the last step's diffusion increment.  A state keeps references to
what these guesses read, and the guesses are built only when a solve
takes the Krylov path; the isotropic fast path never reads them.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import motion as mo
from .elliptic import EllipticError, solve_dirichlet, solve_helmholtz
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    boundary_extrapolate,
    pushforward,
    radial_derivative,
    spectral_theta_derivative,
)
from .homogenize import closed_form

BESSEL_J01 = 2.4048255576957724      # first zero of J0, float(jn_zeros(0, 1)[0])
CFL_NUMBER = 0.4                     # largest admissible advective Courant number
ROUNDOFF_DECAY = 53 * math.log(2.0)  # exp(-ROUNDOFF_DECAY) = 2^-53, a unit round-off
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, from glibc's malloc.h


class CFLError(RuntimeError):
    """Advective step size violates the CFL limit."""

    def __init__(self, dt, dt_max):
        super().__init__(
            f"dt = {dt:.3e} violates the CFL limit; largest admissible step "
            f"is {dt_max:.3e}"
        )
        self.suggested_dt = dt_max


# What a run reports as a numerical failure rather than a crash: Python's
# float ** raises OverflowError, which is not a FloatingPointError, and a
# grid too large for memory raises MemoryError.
NUMERICAL_FAILURES = (CFLError, EllipticError, FloatingPointError, OverflowError,
                      MemoryError)


@dataclass
class SolverState:
    """Pulled-back vorticity with its cached elliptic companions."""

    motion: mo.MotionSpec
    grid: Grid
    omega: ScalarField        # pulled-back vorticity
    psi: ScalarField          # pulled-back stream function of v, zero on r=1
    psi_hat: np.ndarray       # rfft of psi along theta, for v and the next corner stream
    v: VectorField            # Biot-Savart velocity at reference nodes, tangent to r = 1
    stream_coeff: float       # corner-stream coefficient of rho - V (homogenize.closed_form)
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
    (psi, psi_hat, v) with psi_hat the rfft of psi along theta.
    """
    md = mo.metric_at(m, t)
    psi = solve_dirichlet(md.q_up, omega, x0=psi0)
    psi_hat = np.fft.rfft(psi.values, axis=1)
    v = _perp_from_stream(psi, psi_hat, m.forward_matrix(t))
    return psi, psi_hat, v


def _perp_from_stream(psi: ScalarField, psi_hat: np.ndarray, T: np.ndarray) -> VectorField:
    """v = J T^T grad_y psi: the physical perpendicular gradient.

    grad_y psi = R(theta) (d_r psi, d_theta psi / r), so v is one 2x2
    matrix per angle, K(theta) = J T^T R(theta), applied to the polar
    derivatives.
    """
    g = psi.grid
    d_r = radial_derivative(g, psi.values)
    d_t = spectral_theta_derivative(g, psi_hat.copy())
    d_t /= g.radii[:, None]
    cos, sin = np.cos(g.angles), np.sin(g.angles)
    JT = mo._J @ T.T
    k_r = JT[:, :1] * cos + JT[:, 1:] * sin        # K[:, 0] per angle, (2, n_theta)
    k_t = JT[:, 1:] * cos - JT[:, :1] * sin        # K[:, 1]
    v2 = k_r[1] * d_r
    v2 += k_t[1] * d_t
    d_r *= k_r[0]
    d_t *= k_t[0]
    d_r += d_t
    return VectorField(g, d_r, v2)


def boundary_tangency_residual(state: SolverState) -> float:
    """max |e_r.(T v)| on r = 1, extrapolated from the node values of the
    pushforward of the Biot-Savart velocity v.

    The transport field is w = T v + T (rho - V), and T (rho - V) is the
    perpendicular gradient of coeff |y|^2, whose radial part is zero; so
    e_r.w = e_r.(T v), v is tangent to the moving boundary, and the
    residual measures discretization error alone.  The extrapolation reads
    the three outer rings only, so T v is evaluated there alone.
    """
    g, v = state.grid, state.v
    rings = slice(-3, None)
    w1, w2 = pushforward(state.motion.forward_matrix(state.t), v.u1[rings], v.u2[rings])
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
    coeff = state.stream_coeff
    g = state.grid
    spec = state.psi_hat
    edge = np.zeros((g.n_r + 1, spec.shape[1]), dtype=complex)
    np.add(spec[:-1], spec[1:], out=edge[1:-1])
    edge[1:-1] *= 0.5
    edge[0, 0] = (15.0 * spec[0, 0] - 10.0 * spec[1, 0] + 3.0 * spec[2, 0]) / 8.0
    # edge[-1] stays 0: homogeneous Dirichlet trace of psi
    edge *= np.exp(1j * g.modes * (0.5 * g.dtheta))
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
    q_r = np.empty_like(corners)
    np.subtract(corners[:, :-1], corners[:, 1:], out=q_r[:, 1:])
    np.subtract(corners[:, -1], corners[:, 0], out=q_r[:, 0])
    q_t = corners[1:] - corners[:-1]
    return q_r, q_t


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The median of a, b and 0: the smaller in magnitude where a and b
    share a sign, else 0."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    np.minimum(hi, 0.0, out=hi)
    return np.maximum(lo, hi, out=lo)


def _muscl_tendency(g: Grid, omega: np.ndarray, q_r: np.ndarray, q_t: np.ndarray,
                    dirichlet: bool) -> np.ndarray:
    """Flux-form advection with minmod-limited linear reconstruction."""
    div = _radial_outflow(omega, q_r, dirichlet)
    div += _angular_outflow(omega, q_t)
    div /= g.cell_area
    return np.negative(div, out=div)


# Each kernel below takes every neighbour difference once, into an array one
# row (radial) or one column (angular) wider than omega, reads a cell's two
# one-sided differences as shifted slices of it, and then reuses that array
# and the slopes' for the face states and fluxes, so a step allocates and
# writes fewer field-sized temporaries.  Whether a freed temporary's pages
# stay mapped is _keep_freed_pages's policy, not these kernels'.

def _radial_outflow(omega: np.ndarray, q_r: np.ndarray, dirichlet: bool) -> np.ndarray:
    """Each cell's net upwind outflow through its two radial faces."""
    n_r, n_t = omega.shape
    # differences across edges k = 0..n_r: the across-origin ghost (the
    # value at (r_0, theta + pi)) inside, the boundary closure outside
    d = np.empty((n_r + 1, n_t))
    np.subtract(omega[1:], omega[:-1], out=d[1:-1])
    d[0] = omega[0] - np.roll(omega[0], n_t // 2)
    d[-1] = -2.0 * omega[-1] if dirichlet else d[-2]
    half = _minmod(d[:-1], d[1:])
    half *= 0.5                                   # half the limited slope
    # upwind states at the interior faces k = 1..n_r-1, then the fluxes;
    # none crosses the origin or r = 1
    flux = d
    np.add(omega[:-1], half[:-1], out=flux[1:-1])
    np.subtract(omega[1:], half[1:], out=half[1:])
    np.copyto(flux[1:-1], half[1:], where=q_r[1:-1] <= 0.0)
    flux[1:-1] *= q_r[1:-1]
    flux[0] = flux[-1] = 0.0
    return np.subtract(flux[1:], flux[:-1], out=half)


def _angular_outflow(omega: np.ndarray, q_t: np.ndarray) -> np.ndarray:
    """Each cell's net upwind outflow through its two angular faces,
    periodic in theta."""
    n_r, n_t = omega.shape
    # differences across faces j - 1/2, j = 0..n_theta
    d = np.empty((n_r, n_t + 1))
    np.subtract(omega[:, 1:], omega[:, :-1], out=d[:, 1:-1])
    d[:, 0] = omega[:, 0] - omega[:, -1]
    d[:, -1] = d[:, 0]
    half = _minmod(d[:, :-1], d[:, 1:])
    half *= 0.5
    # right[:, j + 1]: the downstream state of face j + 1/2, cell j + 1's own
    right = d
    np.subtract(omega, half, out=right[:, :-1])
    right[:, -1] = right[:, 0]
    face = np.add(omega, half, out=half)
    np.copyto(face, right[:, 1:], where=q_t <= 0.0)
    # flux[:, j + 1]: the flux through face j + 1/2; column 0 repeats the last
    flux = d
    np.multiply(q_t, face, out=flux[:, 1:])
    flux[:, 0] = flux[:, -1]
    return np.subtract(flux[:, 1:], flux[:, :-1], out=face)


def cfl_timestep(state: SolverState, q_r: np.ndarray, q_t: np.ndarray) -> float:
    """Largest admissible dt for the per-cell advective CFL condition."""
    g = state.grid
    vel = np.abs(q_r)
    vel[0] = 0.0                          # the origin edge has no length
    vel[1:] /= g.edge_radii[1:, None] * g.dtheta
    rate = np.maximum(vel[:-1], vel[1:])
    rate /= g.dr
    del vel                               # freed before the angular speeds are built
    # vel[:, j + 1]: the speed through face j + 1/2; column 0 repeats the last
    vel = np.empty((g.n_r, g.n_theta + 1))
    np.abs(q_t, out=vel[:, 1:])
    vel[:, 1:] /= g.dr
    vel[:, 0] = vel[:, -1]
    rate_t = np.maximum(vel[:, 1:], vel[:, :-1])
    rate_t /= g.radii[:, None] * g.dtheta
    rate += rate_t
    rate = float(np.max(rate))
    if rate == 0.0:
        return np.inf
    return CFL_NUMBER / rate


def step(state: SolverState, dt: float) -> SolverState:
    """Advance one step of size dt: MUSCL advection, backward-Euler
    diffusion, refresh.

    Lie splitting, first order in time.  For nu = 0 the diffusion stage is
    skipped and no vorticity boundary condition is imposed (the transport
    field is tangent, so the boundary is characteristic).
    """
    _check_dt(dt)
    m, g = state.motion, state.grid
    t_new = state.t + dt
    m.check_time(t_new)
    dirichlet = state.nu > 0.0

    q_r, q_t = face_fluxes(state)
    dt_max = cfl_timestep(state, q_r, q_t)
    if dt > dt_max:
        raise CFLError(dt, dt_max)

    w0 = state.omega.values
    w = _muscl_tendency(g, w0, q_r, q_t, dirichlet)
    w *= dt
    w += w0                       # w0 + dt * tendency, in the tendency's array
    advected = omega_new = ScalarField(g, w)
    if dirichlet:
        q_up = mo.metric_at(m, t_new).q_up
        omega_new = solve_helmholtz(q_up, advected, state.nu * dt,
                                    x0=partial(_diffusion_guess, state, advected, dt))
    omega_new.check_finite()
    return _refresh(m, omega_new, t_new, state.nu,
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


def _refresh(m: mo.MotionSpec, omega: ScalarField, t: float, nu: float,
             psi0=None, psi_history=(), omega_star=None) -> SolverState:
    psi, psi_hat, v = biot_savart(omega, m, t, psi0=psi0)
    return SolverState(motion=m, grid=omega.grid, omega=omega, psi=psi, psi_hat=psi_hat, v=v,
                       stream_coeff=float(closed_form(m, t)[3]), t=t, nu=nu,
                       psi_history=psi_history, omega_star=omega_star)


def create_state(m: mo.MotionSpec, omega0: ScalarField, nu: float,
                 t: float = 0.0) -> SolverState:
    """Assemble a consistent state from initial vorticity on its reference grid.

    The run has no body force that reaches the vorticity: a potential force
    is absorbed by the pressure, so the vorticity has no source term.
    Under glibc it also sets the process's malloc thresholds for the grid
    (see _keep_freed_pages).
    """
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")
    m.check_time(t)
    omega0.check_finite()
    _keep_freed_pages(omega0.grid)
    return _refresh(m, omega0.copy(), t, nu)


def mollify_initial(omega0: ScalarField, nu: float, m: mo.MotionSpec) -> ScalarField:
    """Dirichlet heat semigroup applied for time nu on the initial domain.

    Smooths rough data without increasing its L^2 norm; implemented with
    n_sub >= 8 equal backward-Euler substeps of the t = 0 pulled-back
    operator.  For nu > 0 under glibc it sets the process's malloc
    thresholds for the grid first, as create_state does.
    """
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")
    if nu == 0.0:
        return omega0.copy()
    _keep_freed_pages(omega0.grid)
    q_up = mo.metric_at(m, 0.0).q_up
    out = omega0.copy()
    lam = BESSEL_J01 ** 2 * nu            # the slowest mode decays as exp(-lam)
    # backward Euler is first order: the relative bias on the slowest mode is
    # about lam^2 / (2 n); grow n with nu to keep it below 0.3%
    if lam <= ROUNDOFF_DECAY:
        n_sub = max(8, math.ceil(lam ** 2 / 0.006))
    else:
        # exp(-lam) is below round-off, so the result is zero to round-off:
        # stop at the first n whose damping (1 + lam/n)^-n is that small too,
        # or at the bias bound (lam * lam is inf, not an OverflowError, once
        # lam passes 1e154)
        n_sub = 8
        while n_sub < lam * lam / 0.006 and n_sub * math.log1p(lam / n_sub) < ROUNDOFF_DECAY:
            n_sub += 1
    for _ in range(n_sub):
        out = solve_helmholtz(q_up, out, nu / n_sub, x0=out)
    return out


def _keep_freed_pages(grid: Grid):
    """Have glibc's malloc keep the pages that a run on this grid frees.

    By default glibc serves each block of 128 KB or more with its own mmap,
    unmaps it on free, and raises that threshold only when such a block is
    freed, so the field temporaries of every step (256 KB each at 128x256)
    fault their pages in afresh.  Here M_MMAP_THRESHOLD is fixed at 16
    fields, at least 4 MiB and at most glibc's 64-bit cap of 32 MiB, and
    the heap keeps 4 times that free before it trims (M_TRIM_THRESHOLD).
    A step's largest temporary, the anisotropic stencil's three partial
    sums, is about 3 fields; with the threshold at 2 fields a 256x512
    rotating ellipse faulted about 8,700 pages a step.  Where the C library
    is not glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):   # not glibc, no libc, no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    threshold = min(32 << 20, max(4 << 20, 16 * 8 * grid.n_r * grid.n_theta))
    mallopt(_M_MMAP_THRESHOLD, threshold)
    mallopt(_M_TRIM_THRESHOLD, 4 * threshold)


def _check_dt(dt: float):
    if not dt > 0:                # NaN included
        raise ValueError(f"dt must be positive, got {dt!r}")


def step_count(t0: float, t_final: float, dt: float) -> int:
    """Steps a trajectory takes from t0 to t_final: full steps of dt, then
    a last one that ends on t_final.  A remainder under 1e-9 of a step
    joins the last step instead of making a step of its own, so every
    horizon past t0, however short, takes at least one step and ends on
    t_final."""
    _check_dt(dt)
    if t_final <= t0:
        return 0
    return max(1, math.ceil((t_final - t0) / dt - 1e-9))


def trajectory(state: SolverState, dt: float, t_final: float):
    """The states of a run to t_final with steps of dt, the initial one
    first: the one time loop.  The last of the step_count steps is resized
    to land on t_final.  Nothing is kept but the current state."""
    n = step_count(state.t, t_final, dt)
    yield state
    for k in range(n):
        state = step(state, dt if k < n - 1 else t_final - state.t)
        yield state


def run(state: SolverState, dt: float, t_final: float, observer=None) -> SolverState:
    """Step to t_final with steps of dt and return the final state, handing
    every state of the trajectory, the initial one too, to the observer."""
    for state in trajectory(state, dt, t_final):
        if observer is not None:
            observer(state)
    return state


# ---------------------------------------------------------------------------
# named initial-data presets
# ---------------------------------------------------------------------------

def initial_condition(name: str, grid: Grid, amplitude: float = 1.0,
                      center=(0.0, 0.0), radius: float = 0.5) -> ScalarField:
    """Build one of the named initial vorticity presets on the grid."""
    r2 = grid.y1 ** 2 + grid.y2 ** 2
    if name == "bessel_mode":
        vals = amplitude * _bessel_j0(BESSEL_J01 * grid.radii)[:, None] * np.ones(grid.n_theta)
    elif name == "radial_poly":
        vals = amplitude * (1.0 - r2) ** 2
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


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) = (1/2pi) int_0^2pi cos(x sin tau) dtau by the 32-point periodic
    trapezoid rule.  Its error is 2 (J32(x) + J64(x) + ...), below round-off
    for |x| <= 6, which covers the preset's arguments (at most j01)."""
    tau = np.arange(32) * (2.0 * np.pi / 32)
    return np.mean(np.cos(np.multiply.outer(x, np.sin(tau))), axis=-1)


INITIAL_PRESETS = ("bessel_mode", "radial_poly", "offset_bump", "disk_indicator")
