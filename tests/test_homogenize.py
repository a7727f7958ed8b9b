import numpy as np
import pytest

from mdflow.grid import Grid, boundary_extrapolate, integrate
from mdflow.homogenize import closed_form, homogenization
from mdflow.motion import (
    boundary_flux,
    boundary_normal,
    custom_motion,
    material_velocity,
)
from conftest import BUILTIN_PARAMS, builtin_motions, custom_affine_motion
from oracles import boundary_point, curl, divergence, ellipse_kappa, numerical_rho


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_analytic_rho_boundary_residual(kind):
    """rho.eta equals the boundary flux at 256 boundary points."""
    m = builtin_motions()[kind]
    t = 0.4
    theta = np.arange(256) * 2 * np.pi / 256
    x = boundary_point(m, theta, t)
    n = boundary_normal(m, theta, t)
    g = boundary_flux(m, theta, t)
    p = BUILTIN_PARAMS[kind]
    # closed-form rho evaluated directly at the physical boundary points
    if kind == "identity":
        rho = np.zeros_like(x)
    elif kind == "translation":
        cd = p["c_dot"](t)
        rho = np.broadcast_to(cd, x.shape).copy()
    elif kind == "stretch":
        ad = p["a_dot"](t)
        rho = ad * np.stack([x[:, 0], -x[:, 1]], axis=-1)
    else:
        kap = ellipse_kappa(p["a_x"], p["phi_dot"](t))
        phi = p["phi"](t)
        c, s = np.cos(phi), np.sin(phi)
        b1 = c * x[:, 0] + s * x[:, 1]
        b2 = -s * x[:, 0] + c * x[:, 1]
        rho = np.stack([c * kap * b2 - s * kap * b1,
                        s * kap * b2 + c * kap * b1], axis=-1)
    res = np.abs(np.sum(rho * n, axis=-1) - g)
    assert np.max(res) < 1e-10


def test_analytic_rho_identity_zero():
    g = Grid(16, 32)
    res, _ = homogenization(builtin_motions()["identity"], 0.3, g)
    assert np.max(np.abs(res.u1)) == 0.0
    assert np.max(np.abs(res.u2)) == 0.0


def test_analytic_rho_translation_constant():
    g = Grid(16, 32)
    m = builtin_motions()["translation"]
    res, _ = homogenization(m, 0.5, g)
    cd = BUILTIN_PARAMS["translation"]["c_dot"](0.5)
    assert np.max(np.abs(res.u1 - cd[0])) < 1e-14
    assert np.max(np.abs(res.u2 - cd[1])) < 1e-14


def test_ellipse_kappa_value():
    """A_x = sqrt(2), rate 1: kappa = (2 - 1/2)/(2 + 1/2) = 0.6."""
    assert ellipse_kappa(np.sqrt(2.0), 1.0) == pytest.approx(0.6, abs=1e-14)


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_numerical_matches_analytic(kind):
    m = builtin_motions()[kind]
    errs = []
    for n_r in (32, 64, 128):
        grid = Grid(n_r, 2 * n_r)
        ana, _ = homogenization(m, 0.4, grid)
        num = numerical_rho(m, 0.4, grid)
        errs.append(max(np.max(np.abs(ana.u1 - num.u1)),
                        np.max(np.abs(ana.u2 - num.u2))))
    # built-in harmonic extensions are polynomial, so the discrete path is
    # exact on them; the error envelope C h^2 is satisfied trivially
    assert all(e <= 1e-4 * (32.0 / n) ** 2 + 1e-8
               for e, n in zip(errs, (32, 64, 128)))


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_numerical_rho_divergence_and_curl_free(kind):
    m = builtin_motions()[kind]
    grid = Grid(128, 256)
    num = numerical_rho(m, 0.4, grid)
    T = m.forward_matrix(0.4)
    assert integrate(divergence(num, jac=T), 2) < 1e-6
    assert integrate(curl(num, jac=T), 2) < 1e-6


def test_numerical_rho_plugin_shear():
    """A unit-determinant shear through the plug-in interface: the Neumann
    reference must produce a divergence- and curl-free field.  (Affine
    motions all have polynomial harmonic extensions, so the discrete path
    is exact on them; the genuine O(h^2) rate of the Neumann reference is
    shown on non-polynomial data in acceptance criterion 2.)"""
    shear_inv = lambda t: np.array([[1.0, 0.4 * t], [0.0, 1.0]])
    shear_inv_dt = lambda t: np.array([[0.0, 0.4], [0.0, 0.0]])
    m = custom_motion(shear_inv, shear_inv_dt,
                      lambda t: np.zeros(2), lambda t: np.zeros(2), horizon=1.0)
    t = 1.0
    T = m.forward_matrix(t)
    for n_r in (32, 64):
        grid = Grid(n_r, 2 * n_r)
        res = numerical_rho(m, t, grid)
        assert integrate(divergence(res, jac=T), 2) < 1e-9
        assert integrate(curl(res, jac=T), 2) < 1e-9


def test_homogenization_dispatch():
    """A plug-in motion gets the closed form too: it matches the Neumann
    reference at the exactness floor and carries g at 256 boundary points."""
    m = custom_affine_motion()
    t = 0.3
    grid = Grid(32, 64)
    res, _ = homogenization(m, t, grid)
    num = numerical_rho(m, t, grid)
    assert max(np.max(np.abs(res.u1 - num.u1)),
               np.max(np.abs(res.u2 - num.u2))) < 1e-8
    # rho is affine in x, so the quadratic trace on r = 1 is exact
    ring = Grid(16, 256)
    res, _ = homogenization(m, t, ring)
    rho = np.stack([boundary_extrapolate(ring, res.u1),
                    boundary_extrapolate(ring, res.u2)], axis=-1)
    n = boundary_normal(m, ring.angles, t)
    g = boundary_flux(m, ring.angles, t)
    assert np.max(np.abs(np.sum(rho * n, axis=-1) - g)) < 1e-10


def test_correction_stream_coefficient():
    """The pushforward of rho - V is the perp gradient of c |y|^2."""
    motions = builtin_motions()
    for kind in ("identity", "translation", "stretch"):
        assert closed_form(motions[kind], 0.5)[3] == 0.0
    me = motions["rotating_ellipse"]
    c = closed_form(me, 0.5)[3]
    assert c == pytest.approx(0.5 * (0.6 - 1.0) * 2.0, abs=1e-14)  # -0.4

    # verify against the fields: perp-grad of c r^2 is (-2c y2, 2c y1)
    grid = Grid(24, 48)
    t = 0.5
    for m in (me, custom_affine_motion()):
        res, c = homogenization(m, t, grid)
        pts = np.stack([grid.y1, grid.y2], axis=-1).reshape(-1, 2)
        vel = material_velocity(m, pts, t).reshape(grid.n_r, grid.n_theta, 2)
        d1 = res.u1 - vel[..., 0]
        d2 = res.u2 - vel[..., 1]
        T = m.forward_matrix(t)
        w1 = T[0, 0] * d1 + T[0, 1] * d2
        w2 = T[1, 0] * d1 + T[1, 1] * d2
        assert np.max(np.abs(w1 - (-2 * c * grid.y2))) < 1e-12
        assert np.max(np.abs(w2 - (2 * c * grid.y1))) < 1e-12

