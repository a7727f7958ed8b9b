"""Prescribed motions of the material domain and their geometry.

Every built-in motion is an affine, area-preserving family: the forward
map sends the physical point x at time t to the reference point
y = T(t) x + d(t) with det T = 1, so the reference domain is always the
unit disk and Christoffel corrections vanish.  From the map and its time
derivatives follow the material velocity of the domain, the outward
normal, the boundary flux g (the normal speed of the moving boundary),
and the metric tensors of the pulled-back operators.

A plug-in motion supplies the same callables directly; its unit-Jacobian
property is then checked at runtime instead of holding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BUILTIN_KINDS = ("identity", "translation", "stretch", "rotating_ellipse")

_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter-turn generator


def _rot(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MotionSpec:
    """Affine domain motion y = T(t) x + d(t); immutable and thread-safe.

    forward_matrix T(t) is dy/dx, inverse_matrix S(t) = T(t)^-1 is dx/dy,
    inverse_matrix_dt is dS/dt, offset d(t) and offset_dt its derivative.
    All callables must be smooth on [0, horizon].
    """

    kind: str
    horizon: float
    forward_matrix: Callable[[float], np.ndarray]
    inverse_matrix: Callable[[float], np.ndarray]
    inverse_matrix_dt: Callable[[float], np.ndarray]
    offset: Callable[[float], np.ndarray]
    offset_dt: Callable[[float], np.ndarray]
    params: dict = field(default_factory=dict)

    def check_time(self, t: float):
        if not (0.0 <= t <= self.horizon) or not np.isfinite(t):
            raise ValueError(f"time {t} outside the motion horizon [0, {self.horizon}]")


def identity_motion(horizon: float = 1.0) -> MotionSpec:
    """The fixed unit disk."""
    eye = np.eye(2)
    zero = np.zeros(2)
    return MotionSpec(
        kind="identity",
        horizon=horizon,
        forward_matrix=lambda t: eye,
        inverse_matrix=lambda t: eye,
        inverse_matrix_dt=lambda t: np.zeros((2, 2)),
        offset=lambda t: zero,
        offset_dt=lambda t: zero,
    )


def translation_motion(c, c_dot, horizon: float = 1.0) -> MotionSpec:
    """Rigid translation along the path c(t); c(t), c_dot(t) -> 2-vectors."""
    eye = np.eye(2)
    return MotionSpec(
        kind="translation",
        horizon=horizon,
        forward_matrix=lambda t: eye,
        inverse_matrix=lambda t: eye,
        inverse_matrix_dt=lambda t: np.zeros((2, 2)),
        offset=lambda t: -np.asarray(c(t), dtype=float),
        offset_dt=lambda t: -np.asarray(c_dot(t), dtype=float),
        params={"c": c, "c_dot": c_dot},
    )


def stretch_motion(a, a_dot, horizon: float = 1.0) -> MotionSpec:
    """Unit-determinant diagonal stretch: the disk maps to the ellipse with
    semi-axes (e^{a(t)}, e^{-a(t)})."""
    zero = np.zeros(2)

    def fwd(t):
        return np.diag([np.exp(-a(t)), np.exp(a(t))])

    def inv(t):
        return np.diag([np.exp(a(t)), np.exp(-a(t))])

    def inv_dt(t):
        ad = a_dot(t)
        return np.diag([ad * np.exp(a(t)), -ad * np.exp(-a(t))])

    return MotionSpec(
        kind="stretch",
        horizon=horizon,
        forward_matrix=fwd,
        inverse_matrix=inv,
        inverse_matrix_dt=inv_dt,
        offset=lambda t: zero,
        offset_dt=lambda t: zero,
        params={"a": a, "a_dot": a_dot},
    )


def rotating_ellipse_motion(a_x: float, phi, phi_dot, horizon: float = 1.0,
                            a_y: float | None = None) -> MotionSpec:
    """Unit-area ellipse with semi-axes (a_x, a_y = 1/a_x) rotating by the
    angle phi(t)."""
    if a_y is None:
        a_y = 1.0 / a_x
    if abs(a_x * a_y - 1.0) > 1e-12:
        raise ValueError("rotating ellipse semi-axes must satisfy a_x * a_y = 1")
    E = np.diag([a_x, a_y])
    E_inv = np.diag([1.0 / a_x, 1.0 / a_y])
    zero = np.zeros(2)

    def fwd(t):
        return E_inv @ _rot(-phi(t))

    def inv(t):
        return _rot(phi(t)) @ E

    def inv_dt(t):
        return phi_dot(t) * (_rot(phi(t)) @ _J @ E)

    return MotionSpec(
        kind="rotating_ellipse",
        horizon=horizon,
        forward_matrix=fwd,
        inverse_matrix=inv,
        inverse_matrix_dt=inv_dt,
        offset=lambda t: zero,
        offset_dt=lambda t: zero,
        params={"a_x": a_x, "a_y": a_y, "phi": phi, "phi_dot": phi_dot},
    )


def custom_motion(forward_matrix, inverse_matrix, inverse_matrix_dt,
                  offset, offset_dt, horizon: float = 1.0,
                  det_tol: float = 1e-8) -> MotionSpec:
    """Plug-in affine motion from user callables.

    The unit-Jacobian requirement cannot be guaranteed for a plug-in, so
    det(forward_matrix) is checked on a nine-point time lattice at build
    time against det_tol.
    """
    for t in np.linspace(0.0, horizon, 9):
        det = float(np.linalg.det(np.asarray(forward_matrix(t), dtype=float)))
        if abs(det - 1.0) > det_tol:
            raise ValueError(f"plug-in motion is not area preserving: det={det} at t={t}")
    return MotionSpec(
        kind="custom",
        horizon=horizon,
        forward_matrix=lambda t: np.asarray(forward_matrix(t), dtype=float),
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

    @property
    def curl_matrix(self) -> np.ndarray:
        """The matrix A with curl_x v = A : D_y v-tilde for pushed-forward
        fields: A_ij = S_2j T_i1 - S_1j T_i2, i.e. A = -T J S, which is
        -J q_down because T J T^T = det(T) J = J for a unit-Jacobian map."""
        return -_J @ self.q_down


def metric_at(m: MotionSpec, t: float) -> MetricData:
    """Metric tensors at time t; constant in space for affine maps."""
    m.check_time(t)
    T = m.forward_matrix(t)
    S = m.inverse_matrix(t)
    return MetricData(q_up=T @ T.T, q_down=S.T @ S)


# ---------------------------------------------------------------------------
# maps and kinematics; all accept (..., 2)-shaped point arrays
# ---------------------------------------------------------------------------

def _apply_affine(M: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return pts @ M.T + b


def map_forward(m: MotionSpec, x, t: float):
    """Reference point y of the physical point x at time t."""
    m.check_time(t)
    return _apply_affine(m.forward_matrix(t), m.offset(t), x)


def map_backward(m: MotionSpec, y, t: float):
    """Physical point x of the reference point y at time t."""
    m.check_time(t)
    S = m.inverse_matrix(t)
    return _apply_affine(S, -S @ m.offset(t), y)


def jacobian(m: MotionSpec, x, t: float) -> np.ndarray:
    """dy_i/dx_j at (x, t); x-independent for affine motions."""
    m.check_time(t)
    return m.forward_matrix(t)


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


def boundary_point(m: MotionSpec, theta, t: float):
    """Physical boundary point at reference angle theta."""
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return map_backward(m, e, t)


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
    x = map_backward(m, e, t)
    v = material_velocity(m, map_forward(m, x, t), t)
    n = boundary_normal(m, theta, t)
    return np.sum(v * n, axis=-1)


def boundary_arc_factor(m: MotionSpec, theta, t: float):
    """|dx/dtheta| along the physical boundary, i.e. ds_x / dtheta.

    For a unit-Jacobian map this equals |T^T e_r|, the stretch factor that
    also converts reference conormal data to physical flux data.
    """
    m.check_time(t)
    S = m.inverse_matrix(t)
    tang = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return np.linalg.norm(tang @ S.T, axis=-1)


def flux_circulation(m: MotionSpec, t: float, n: int = 64) -> float:
    """Circulation of g along the moving boundary, which vanishes for any
    area-preserving motion (the divergence theorem applied to the material
    velocity).  The n-point periodic trapezoid is spectrally accurate for
    the smooth periodic integrand of an affine motion."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    vals = boundary_flux(m, theta, t) * boundary_arc_factor(m, theta, t)
    return float(np.sum(vals) * (2.0 * np.pi / n))


# ---------------------------------------------------------------------------
# signed distance (cross-check only; positive inside, eta = -grad gamma)
# ---------------------------------------------------------------------------

def _ellipse_nearest_angle(ax: float, ay: float, p: np.ndarray,
                           tol: float = 1e-12, maxiter: int = 50) -> float:
    """Parameter angle of the nearest point on the ellipse (ax cos, ay sin);
    expects p folded into the first quadrant."""
    px, py = p[0], p[1]
    th = np.arctan2(ax * py, ay * px) if (px > 0 or py > 0) else 0.0
    for _ in range(maxiter):
        c, s = np.cos(th), np.sin(th)
        ex, ey = ax * c, ay * s
        # stationarity of |E e(th) - p|^2
        f = (ex - px) * (-ax * s) + (ey - py) * (ay * c)
        fp = (ex - px) * (-ax * c) + (ey - py) * (-ay * s) + (ax * s) ** 2 + (ay * c) ** 2
        step = f / fp
        th -= step
        th = min(max(th, 0.0), np.pi / 2)
        if abs(step) < tol:
            break
    return th


def _ellipse_signed_distance(ax: float, ay: float, p: np.ndarray) -> float:
    """Signed distance to the ellipse boundary, positive inside."""
    q = np.abs(np.asarray(p, dtype=float))
    th = _ellipse_nearest_angle(ax, ay, q)
    nearest = np.array([ax * np.cos(th), ay * np.sin(th)])
    dist = float(np.linalg.norm(nearest - q))
    inside = (q[0] / ax) ** 2 + (q[1] / ay) ** 2 <= 1.0
    return dist if inside else -dist


def signed_distance(m: MotionSpec, x, t: float) -> float:
    """Signed distance to the moving boundary, positive inside Omega_t.

    With this sign the outward normal is -grad gamma and the boundary flux
    is d gamma / dt.  The boundary is the ellipse about c = -S d whose
    body axes and squared semi-axes are the eigenvectors and eigenvalues
    of S S^T; a nearest-point Newton iteration runs in the body frame.
    """
    m.check_time(t)
    S = m.inverse_matrix(t)
    lam, Q = np.linalg.eigh(S @ S.T)
    body = (np.asarray(x, dtype=float) + S @ m.offset(t)) @ Q
    return _ellipse_signed_distance(np.sqrt(lam[0]), np.sqrt(lam[1]), body)
