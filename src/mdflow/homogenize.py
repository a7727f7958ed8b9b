"""Boundary-flux homogenization: the harmonic field that carries g.

The moving boundary forces u.eta = g on the fluid.  Solving a Neumann
problem for h with conormal data g and setting rho = grad h produces a
divergence- and curl-free field with rho.eta = g, so v = u - rho is
tangent to the boundary and shares u's vorticity.

Every affine unit-Jacobian motion admits one closed form.  The domain
velocity V(x) = B x - S d_dot is linear with B = S_dot T trace free;
its symmetric part P and the translation are already harmonic
gradients, and the rigid rotation omega J about the ellipse centre c
is matched on the boundary by Lamb's rotating-ellipse potential
(Hydrodynamics, sec. 72), written here as the symmetric trace-free
matrix K = omega (J A - A J) / tr A with A = S S^T.  The numerical path
pulls the Neumann problem back to the disk and is kept as the
independent cross-check.
"""

from __future__ import annotations

import numpy as np

from . import motion as mo
from .elliptic import solve_neumann
from .grid import Grid, ScalarField, VectorField, gradient, pushforward


def _closed_form(m: mo.MotionSpec, t: float):
    """(S, G, V(c), coeff): rho(x) = G (x - c) + V(c) with G symmetric and
    trace free, c the ellipse centre, V(c) its velocity, and coeff the
    corner-stream coefficient of the pushforward of rho - V."""
    S, T = m.inverse_matrix(t), m.forward_matrix(t)
    B = m.inverse_matrix_dt(t) @ T
    omega = 0.5 * (B[1, 0] - B[0, 1])
    A = S @ S.T
    G = 0.5 * (B + B.T) + omega * (mo._J @ A - A @ mo._J) / np.trace(A)
    c = -S @ m.offset(t)
    v_c = B @ c - S @ m.offset_dt(t)
    # T (rho - V) = T (G - B) S y, antisymmetric: the perp gradient of coeff |y|^2
    M = T @ (G - B) @ S
    return S, G, v_c, 0.25 * (M[1, 0] - M[0, 1])


def homogenization(m: mo.MotionSpec, t: float, grid: Grid) -> VectorField:
    """Closed-form rho = grad h at the reference nodes, for any affine
    unit-Jacobian motion."""
    m.check_time(t)
    S, G, v_c, _ = _closed_form(m, t)
    # at the reference node y the physical offset from the centre is x - c = S y
    GS = G @ S
    y1, y2 = grid.y1, grid.y2
    r1, r2 = pushforward(GS, y1, y2)
    r1 += v_c[0]
    r2 += v_c[1]
    return VectorField(grid, r1, r2)


def numerical_rho(m: mo.MotionSpec, t: float, grid: Grid,
                  compat_tol: float = 1e-8) -> VectorField:
    """rho = grad h, with h from a pulled-back Neumann solve on the reference disk.

    The physical conormal data g becomes g * |dx/dtheta| on the unit circle
    (the same arc factor maps the length elements), and the physical
    gradient is recovered through the chain rule.
    """
    m.check_time(t)
    circ = mo.flux_circulation(m, t, n=max(64, grid.n_theta))
    if abs(circ) > compat_tol:
        raise ValueError(
            "boundary flux violates the zero-circulation compatibility of an "
            f"area-preserving motion: circulation {circ:.3e}"
        )
    md = mo.metric_at(m, t)
    g_tilde = mo.boundary_flux(m, grid.angles, t) * mo.boundary_arc_factor(m, grid.angles, t)
    h = solve_neumann(md.q_up, ScalarField.zeros(grid), flux=g_tilde)
    grad_ref = gradient(h)
    return VectorField(grid, *pushforward(m.forward_matrix(t).T, grad_ref.u1, grad_ref.u2))


def correction_stream_coefficient(m: mo.MotionSpec, t: float) -> float:
    """Coefficient c of the radial stream function c*|y|^2 whose
    perpendicular gradient is the pushforward of rho - V_t.

    rho - V_t is divergence free, tangent to the moving boundary and
    linear in x with no constant part, so its pushforward is the linear
    antisymmetric field 2c J y for every affine motion.
    """
    return float(_closed_form(m, t)[3])
