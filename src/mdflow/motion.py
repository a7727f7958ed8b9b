"""Prescribed motions of the material domain and their geometry.

A motion is four callables of time: S(t) = dx/dy, its derivative S'(t),
the offset d(t) and its derivative d'(t).  The physical point x at time t
sits over the reference point y = T(t) x + d(t), where T = S^-1 is derived
from S, never supplied.  Every motion is affine and area preserving
(det S = 1), so T is the adjugate of S, the reference domain is always the
unit disk and Christoffel corrections vanish.  From S, d and their time
derivatives follow the material velocity of the domain, the outward
normal, the boundary flux g (the normal speed of the moving boundary),
and the metric tensors of the pulled-back operators.

A plug-in motion supplies the same four callables; its unit determinant
is then checked when it is built instead of holding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter-turn generator
_DET_TOL = 1e-8   # how far a plug-in motion's det S may stray from 1


def _rot(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MotionSpec:
    """Affine domain motion x = S(t) (y - d(t)); immutable and thread-safe.

    inverse_matrix S(t) is dx/dy and inverse_matrix_dt is dS/dt; offset d(t)
    and offset_dt its derivative.  All callables must be smooth on
    [0, horizon], and det S = 1.
    """

    horizon: float
    inverse_matrix: Callable[[float], np.ndarray]
    inverse_matrix_dt: Callable[[float], np.ndarray]
    offset: Callable[[float], np.ndarray]
    offset_dt: Callable[[float], np.ndarray]

    def forward_matrix(self, t: float) -> np.ndarray:
        """T(t) = dy/dx, the adjugate of S(t): its exact inverse when det S = 1.
        The off-diagonal entries are 0.0 - s, so a zero stays +0.0."""
        S = self.inverse_matrix(t)
        return np.array([[S[1, 1], 0.0 - S[0, 1]], [0.0 - S[1, 0], S[0, 0]]])

    def check_time(self, t: float):
        if not (0.0 <= t <= self.horizon) or not np.isfinite(t):
            raise ValueError(f"time {t} outside the motion horizon [0, {self.horizon}]")


def identity_motion(horizon: float = 1.0) -> MotionSpec:
    """The fixed unit disk."""
    eye, zero = np.eye(2), np.zeros(2)
    return MotionSpec(horizon, lambda t: eye, lambda t: np.zeros((2, 2)),
                      lambda t: zero, lambda t: zero)


def translation_motion(c, c_dot, horizon: float = 1.0) -> MotionSpec:
    """Rigid translation along the path c(t); c(t), c_dot(t) -> 2-vectors."""
    eye = np.eye(2)
    return MotionSpec(horizon, lambda t: eye, lambda t: np.zeros((2, 2)),
                      lambda t: -np.asarray(c(t), dtype=float),
                      lambda t: -np.asarray(c_dot(t), dtype=float))


def stretch_motion(a, a_dot, horizon: float = 1.0) -> MotionSpec:
    """Unit-determinant diagonal stretch: the disk maps to the ellipse with
    semi-axes (e^{a(t)}, e^{-a(t)})."""
    zero = np.zeros(2)

    def inv_dt(t):
        ad = a_dot(t)
        return np.diag([ad * np.exp(a(t)), -ad * np.exp(-a(t))])

    return MotionSpec(horizon, lambda t: np.diag([np.exp(a(t)), np.exp(-a(t))]), inv_dt,
                      lambda t: zero, lambda t: zero)


def rotating_ellipse_motion(a_x: float, phi, phi_dot, horizon: float = 1.0) -> MotionSpec:
    """Unit-area ellipse with semi-axes (a_x, 1/a_x) rotating by the angle
    phi(t)."""
    E = np.diag([a_x, 1.0 / a_x])
    zero = np.zeros(2)
    return MotionSpec(horizon, lambda t: _rot(phi(t)) @ E,
                      lambda t: phi_dot(t) * (_rot(phi(t)) @ _J @ E),
                      lambda t: zero, lambda t: zero)


def custom_motion(inverse_matrix, inverse_matrix_dt, offset, offset_dt,
                  horizon: float = 1.0) -> MotionSpec:
    """Plug-in affine motion from user callables for S, dS/dt, d and dd/dt.

    The unit-Jacobian requirement cannot be guaranteed for a plug-in, so
    det(inverse_matrix) is checked on a nine-point time lattice at build
    time against _DET_TOL; the derived T is then S^-1 to that tolerance.
    """
    for t in np.linspace(0.0, horizon, 9):
        det = float(np.linalg.det(np.asarray(inverse_matrix(t), dtype=float)))
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"plug-in motion is not area preserving: det={det} at t={t}")
    return MotionSpec(
        horizon=horizon,
        inverse_matrix=lambda t: np.asarray(inverse_matrix(t), dtype=float),
        inverse_matrix_dt=lambda t: np.asarray(inverse_matrix_dt(t), dtype=float),
        offset=lambda t: np.asarray(offset(t), dtype=float),
        offset_dt=lambda t: np.asarray(offset_dt(t), dtype=float),
    )


# ---------------------------------------------------------------------------
# metric data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricData:
    """Tensors of the pulled-back operators at one time.

    q_up is q^{ij} = (dy_i/dx_k)(dy_j/dx_k) and q_down its inverse.  The
    Christoffel symbols of an affine map vanish, so none are stored.
    """

    q_up: np.ndarray
    q_down: np.ndarray


def metric_at(m: MotionSpec, t: float) -> MetricData:
    """Metric tensors at time t; constant in space for affine maps."""
    m.check_time(t)
    T = m.forward_matrix(t)
    S = m.inverse_matrix(t)
    return MetricData(q_up=T @ T.T, q_down=S.T @ S)


# ---------------------------------------------------------------------------
# kinematics; point arrays are (..., 2)-shaped
# ---------------------------------------------------------------------------

def material_velocity(m: MotionSpec, y, t: float):
    """Velocity of the domain material point currently at x = Psi(y, t).

    This is d/dt Psi(y, t) with y held fixed; divergence-free for every
    unit-Jacobian family.
    """
    m.check_time(t)
    S_dot = m.inverse_matrix_dt(t)
    S = m.inverse_matrix(t)
    d_dot = m.offset_dt(t)
    y = np.asarray(y, dtype=float)
    return y @ S_dot.T - (S_dot @ m.offset(t) + S @ d_dot)


def boundary_normal(m: MotionSpec, theta, t: float):
    """Unit outward normal of the moving boundary at reference angle theta.

    Normals transform by the transpose of dy/dx: n ~ T^T e_r(theta).
    """
    m.check_time(t)
    T = m.forward_matrix(t)
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    n = e @ T
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def boundary_flux(m: MotionSpec, theta, t: float):
    """Normal speed g of the moving boundary at reference angle theta."""
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return np.sum(material_velocity(m, e, t) * boundary_normal(m, theta, t), axis=-1)


def boundary_arc_factor(m: MotionSpec, theta, t: float):
    """|dx/dtheta| along the physical boundary, i.e. ds_x / dtheta.

    For a unit-Jacobian map this equals |T^T e_r|, the stretch factor that
    also converts reference conormal data to physical flux data.
    """
    m.check_time(t)
    S = m.inverse_matrix(t)
    tang = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return np.linalg.norm(tang @ S.T, axis=-1)

