import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdflow.motion import (
    boundary_arc_factor,
    boundary_flux,
    boundary_normal,
    boundary_point,
    custom_motion,
    flux_circulation,
    identity_motion,
    jacobian,
    map_backward,
    map_forward,
    material_velocity,
    metric_at,
    rotating_ellipse_motion,
    signed_distance,
    stretch_motion,
    translation_motion,
)
from conftest import builtin_motions, custom_affine_motion
from oracles import fd_jacobian, fd_time


def test_map_forward_identity():
    m = identity_motion()
    assert np.allclose(map_forward(m, (0.3, 0.4), 0.7), (0.3, 0.4))


def test_map_forward_stretch_analytic():
    m = stretch_motion(lambda t: t, lambda t: 1.0, horizon=1.0)
    y = map_forward(m, (1.0, 1.0), np.log(2.0))
    assert np.allclose(y, (0.5, 2.0), atol=1e-14)
    x = map_backward(m, (0.5, 2.0), np.log(2.0))
    assert np.allclose(x, (1.0, 1.0), atol=1e-14)


def test_map_forward_translation():
    m = translation_motion(lambda t: np.array([t, 0.0]),
                           lambda t: np.array([1.0, 0.0]))
    assert np.allclose(map_forward(m, (1.5, 0.0), 1.0), (0.5, 0.0))


def test_horizon_checked():
    m = identity_motion(horizon=1.0)
    with pytest.raises(ValueError):
        map_forward(m, (0.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        map_backward(m, (0.0, 0.0), -0.1)


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_roundtrip_lattice(kind):
    """Phi o Psi = id on a 32x32x16 lattice, and det = 1 exactly."""
    m = builtin_motions()[kind]
    xs = np.linspace(-0.7, 0.7, 32)
    pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    for t in np.linspace(0.0, 1.0, 16):
        y = map_forward(m, pts, t)
        back = map_backward(m, y, t)
        assert np.max(np.abs(back - pts)) < 1e-12
        det = np.linalg.det(jacobian(m, pts[0], t))
        assert abs(det - 1.0) < 1e-13


@given(
    st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.0, 1.0),
    st.sampled_from(list(builtin_motions()))
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(x1, x2, t, kind):
    m = builtin_motions()[kind]
    y = map_forward(m, (x1, x2), t)
    assert np.max(np.abs(map_backward(m, y, t) - np.array([x1, x2]))) < 1e-12


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_jacobian_matches_finite_differences(kind):
    m = builtin_motions()[kind]
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-0.6, 0.6, size=2)
        t = rng.uniform(0.0, 1.0)
        J = jacobian(m, x, t)
        J_fd = fd_jacobian(lambda p: map_forward(m, p, t), x)
        assert np.max(np.abs(J - J_fd)) < 1e-6


def test_material_velocity_identity_zero():
    m = identity_motion()
    assert np.allclose(material_velocity(m, (0.2, -0.3), 0.5), 0.0)


def test_material_velocity_translation_rigid():
    m = translation_motion(lambda t: np.array([t, 0.0]),
                           lambda t: np.array([1.0, 0.0]))
    v = material_velocity(m, (0.2, 0.7), 0.3)
    assert np.allclose(v, (1.0, 0.0))


def test_material_velocity_stretch_analytic():
    """a(t) = t gives V(x) = (x1, -x2), from differentiating the inverse map."""
    m = stretch_motion(lambda t: t, lambda t: 1.0)
    x = np.array([0.4, -0.7])
    y = map_forward(m, x, 0.6)
    assert np.allclose(material_velocity(m, y, 0.6), (x[0], -x[1]), atol=1e-13)


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_material_velocity_matches_time_differences(kind):
    m = builtin_motions()[kind]
    y = np.array([0.35, -0.55])
    for t in (0.2, 0.8):
        v = material_velocity(m, y, t)
        v_fd = fd_time(lambda s: map_backward(m, y, s), t)
        assert np.max(np.abs(v - v_fd)) < 1e-8


def test_boundary_normal_identity_and_translation():
    mi = identity_motion()
    assert np.allclose(boundary_normal(mi, 0.0, 0.3), (1.0, 0.0))
    mt = translation_motion(lambda t: np.array([t, 0.0]),
                            lambda t: np.array([1.0, 0.0]))
    th = np.linspace(0, 2 * np.pi, 7)
    n = boundary_normal(mt, th, 0.4)
    assert np.allclose(n, np.stack([np.cos(th), np.sin(th)], axis=-1), atol=1e-14)


def test_boundary_normal_stretch_ellipse():
    """Ellipse with semi-axes (2, 1/2): normal along (x1/4, 4 x2)."""
    m = stretch_motion(lambda t: np.log(2.0), lambda t: 0.0)
    th = np.pi / 4
    n = boundary_normal(m, th, 0.5)
    x = boundary_point(m, th, 0.5)
    ref = np.array([x[0] / 4.0, 4.0 * x[1]])
    ref /= np.linalg.norm(ref)
    assert np.allclose(n, ref, atol=1e-13)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_normal_unit_length(kind):
    m = builtin_motions()[kind]
    th = np.linspace(0, 2 * np.pi, 33)
    n = boundary_normal(m, th, 0.7)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12


def test_boundary_flux_translation_cosine():
    m = translation_motion(lambda t: np.array([t, 0.0]),
                           lambda t: np.array([1.0, 0.0]))
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.max(np.abs(boundary_flux(m, th, 0.2) - np.cos(th))) < 1e-14


def test_boundary_flux_identity_zero():
    m = identity_motion()
    th = np.linspace(0, 2 * np.pi, 16)
    assert np.allclose(boundary_flux(m, th, 0.5), 0.0)


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_flux_circulation_vanishes(kind):
    """Total boundary flux is zero for any area-preserving motion."""
    m = builtin_motions()[kind]
    for t in np.linspace(0.0, 1.0, 16):
        assert abs(flux_circulation(m, t, n=64)) < 1e-10
    # adaptive quadrature cross-checks the periodic trapezoid
    from scipy.integrate import quad
    val, _ = quad(
        lambda th: float(boundary_flux(m, th, 0.37) * boundary_arc_factor(m, th, 0.37)),
        0.0, 2.0 * np.pi, limit=200, epsabs=1e-12, epsrel=1e-12,
    )
    assert abs(val) < 1e-10


@pytest.mark.parametrize("kind", ["translation", "stretch", "rotating_ellipse", "custom"])
def test_flux_matches_signed_distance_rate(kind):
    """g equals the time derivative of the signed distance at the boundary."""
    m = custom_affine_motion() if kind == "custom" else builtin_motions()[kind]
    for th in (0.3, 1.7, 3.9, 5.5):
        t = 0.5
        x = boundary_point(m, th, t)
        g = boundary_flux(m, th, t)
        fd = (signed_distance(m, x, t + 1e-5) - signed_distance(m, x, t - 1e-5)) / 2e-5
        assert abs(g - fd) < 1e-4


def test_signed_distance_sign_convention():
    """Positive inside, so that the outward normal is minus its gradient."""
    m = builtin_motions()["stretch"]
    assert signed_distance(m, (0.0, 0.0), 0.5) > 0
    assert signed_distance(m, (3.0, 3.0), 0.5) < 0
    x_b = boundary_point(m, 1.1, 0.5)
    assert abs(signed_distance(m, x_b, 0.5)) < 1e-11


def test_metric_identity():
    md = metric_at(identity_motion(), 0.5)
    assert np.allclose(md.q_up, np.eye(2))
    assert np.allclose(md.q_down, np.eye(2))
    # curl matrix reproduces the plain 2d curl: A : D v with D_ij = d_i v_j
    D = np.array([[1.0, 2.0], [3.0, 4.0]])
    curl_val = np.sum(md.curl_matrix * D)  # A_ij d_i v_j pairing
    assert abs(curl_val - (D[0, 1] - D[1, 0])) < 1e-14


def test_metric_stretch_values():
    m = stretch_motion(lambda t: 1.0, lambda t: 0.0)
    md = metric_at(m, 0.5)
    assert np.allclose(md.q_up, np.diag([np.exp(-2.0), np.exp(2.0)]))
    assert abs(np.linalg.det(md.q_down) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", list(builtin_motions()))
def test_metric_inverse_pair(kind):
    m = builtin_motions()[kind]
    for t in np.linspace(0.0, 1.0, 8):
        md = metric_at(m, t)
        assert np.max(np.abs(md.q_up @ md.q_down - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(md.q_down) - 1.0) < 1e-12
        ev = np.linalg.eigvalsh(md.q_up)
        assert ev[0] > 0


def test_metric_eigenvalues_uniformly_bounded(motions):
    """Metric stays positive definite and bounded over the whole horizon."""
    for m in motions.values():
        evs = []
        for t in np.linspace(0.0, 1.0, 32):
            evs.append(np.linalg.eigvalsh(metric_at(m, t).q_up))
        evs = np.array(evs)
        assert evs.min() > 0.1
        assert evs.max() < 10.0


def test_curl_matrix_transforms_pushforward_curl(motions):
    """A : D_y of the pushforward reproduces the physical curl of a linear field."""
    rng = np.random.default_rng(5)
    G = rng.normal(size=(2, 2))  # v(x) = G x, curl = G[1,0] - G[0,1]
    for m in motions.values():
        t = 0.6
        T = m.forward_matrix(t)
        S = m.inverse_matrix(t)
        md = metric_at(m, t)
        # pushforward of v(x) = G x is vt(y) = T G S y; D_y vt_j / d y_i = (TGS)_{ji}
        TGS = T @ G @ S
        # omega = A_ij d(vt_j)/d(y_i)
        val = float(np.sum(md.curl_matrix * TGS.T))
        assert abs(val - (G[1, 0] - G[0, 1])) < 1e-12


def test_rotating_ellipse_requires_unit_area():
    with pytest.raises(ValueError):
        rotating_ellipse_motion(2.0, lambda t: t, lambda t: 1.0, a_y=1.0)


def test_custom_motion_rejects_area_change():
    grow = lambda t: (1.0 + 0.5 * t) * np.eye(2)
    with pytest.raises(ValueError):
        custom_motion(grow, grow, grow, lambda t: np.zeros(2), lambda t: np.zeros(2))


def test_custom_motion_affine_shear():
    """A unit-determinant shear supplied through the plug-in interface."""
    shear = lambda t: np.array([[1.0, t], [0.0, 1.0]])
    inv = lambda t: np.array([[1.0, -t], [0.0, 1.0]])
    inv_dt = lambda t: np.array([[0.0, -1.0], [0.0, 0.0]])
    m = custom_motion(shear, inv, inv_dt, lambda t: np.zeros(2),
                      lambda t: np.zeros(2), horizon=1.0)
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(50, 2))
    y = map_forward(m, pts, 0.8)
    assert np.max(np.abs(map_backward(m, y, 0.8) - pts)) < 1e-12
    assert abs(flux_circulation(m, 0.8)) < 1e-10


def test_arc_factor_matches_numerical_arclength(motions):
    m = motions["rotating_ellipse"]
    th = 1.2
    t = 0.4
    d = 1e-6
    num = np.linalg.norm(boundary_point(m, th + d, t) - boundary_point(m, th - d, t)) / (2 * d)
    assert abs(boundary_arc_factor(m, th, t) - num) < 1e-8
