import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdflow.grid import (
    Grid,
    ScalarField,
    VectorField,
    boundary_extrapolate,
    curl,
    divergence,
    gradient,
    integrate,
    mean_value,
    pushforward,
    read_snapshot,
    write_snapshot,
)
from mdflow.diagnostics import R_SET
from oracles import observed_order, pow_lr_norm


def test_grid_layout():
    g = Grid(8, 16)
    assert np.all(g.radii > 0) and np.all(g.radii < 1)
    assert g.radii[0] == pytest.approx(1 / 16)
    assert g.edge_radii[0] == 0.0 and g.edge_radii[-1] == 1.0
    assert g.angles[0] == 0.0
    with pytest.raises(ValueError):
        Grid(8, 15)   # odd angular count breaks the angle-shift pairing
    with pytest.raises(ValueError):
        Grid(2, 16)


def test_gradient_constant_and_linear():
    g = Grid(32, 64)
    const = ScalarField.from_function(g, lambda y1, y2: 3.0 + 0 * y1)
    gc = gradient(const)
    assert np.max(np.abs(gc.u1)) < 1e-13 and np.max(np.abs(gc.u2)) < 1e-13

    lin = ScalarField.from_function(g, lambda y1, y2: y1)
    gl = gradient(lin)
    assert np.max(np.abs(gl.u1 - 1.0)) < 1e-10
    assert np.max(np.abs(gl.u2)) < 1e-10


def test_gradient_exact_on_quadratics():
    g = Grid(24, 48)
    f = ScalarField.from_function(g, lambda y1, y2: y1 * y2)
    gf = gradient(f)
    assert np.max(np.abs(gf.u1 - g.y2)) < 1e-12
    assert np.max(np.abs(gf.u2 - g.y1)) < 1e-12


def test_gradient_second_order_on_smooth_field():
    """Quartic radial content produces a real h^2 error signal."""
    errs = []
    for n_r in (32, 64, 128):
        g = Grid(n_r, 64)
        f = ScalarField.from_function(g, lambda y1, y2: (y1 ** 2 + y2 ** 2) ** 2)
        gf = gradient(f)
        r2 = g.y1 ** 2 + g.y2 ** 2
        errs.append(max(np.max(np.abs(gf.u1 - 4 * r2 * g.y1)),
                        np.max(np.abs(gf.u2 - 4 * r2 * g.y2))))
    orders = observed_order(errs)
    assert np.all(orders > 1.8) and np.all(orders < 2.3)


def test_divergence_and_curl_of_linear_fields():
    g = Grid(24, 48)
    v = VectorField.from_function(g, lambda y1, y2: (2 * y1 + y2, y1 - 3 * y2))
    assert np.max(np.abs(divergence(v).values - (-1.0))) < 1e-11
    assert np.max(np.abs(curl(v).values - 0.0)) < 1e-11


def test_divergence_with_jacobian_chain_rule():
    """Physical components sampled at reference nodes of an affine map."""
    g = Grid(24, 48)
    T = np.array([[np.exp(-0.3), 0.0], [0.0, np.exp(0.3)]])
    S = np.linalg.inv(T)
    # physical field rho(x) = (x1, -x2) has div_x = 0, curl_x = 0
    x1 = S[0, 0] * g.y1
    x2 = S[1, 1] * g.y2
    v = VectorField(g, x1, -x2)
    assert np.max(np.abs(divergence(v, jac=T).values)) < 1e-11
    assert np.max(np.abs(curl(v, jac=T).values)) < 1e-11
    # a sheared T catches a transposed chain rule: the physical field G x
    # has div tr G and curl G21 - G12
    c, s = np.cos(0.7), np.sin(0.7)
    T = np.array([[c, -s], [s, c]]) @ np.array([[1.5, 0.4], [0.0, 1.0 / 1.5]])
    G = np.array([[0.3, -1.2], [0.5, 0.8]])
    v = VectorField(g, *pushforward(G @ np.linalg.inv(T), g.y1, g.y2))
    assert np.max(np.abs(divergence(v, jac=T).values - np.trace(G))) < 1e-11
    assert np.max(np.abs(curl(v, jac=T).values - (G[1, 0] - G[0, 1]))) < 1e-11


def test_pushforward_is_the_matrix_product():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(2, 2))
    u = rng.normal(size=(2, 5, 7))
    got = np.stack(pushforward(M, u[0], u[1]))
    assert np.allclose(got, np.einsum("ij,j...->i...", M, u), rtol=0, atol=1e-14)


def test_integrate_disk_area():
    g = Grid(128, 32)
    one = ScalarField.from_function(g, lambda y1, y2: 1.0 + 0 * y1)
    assert integrate(one, 2) == pytest.approx(np.sqrt(np.pi), abs=1e-4)
    assert integrate(one, 1) == pytest.approx(np.pi, abs=1e-12)


def test_integrate_radial_polynomial():
    """|1 - r^2|_{L^2}^2 = pi/3 by the closed-form radial integral."""
    g = Grid(128, 32)
    f = ScalarField.from_function(g, lambda y1, y2: 1 - y1 ** 2 - y2 ** 2)
    assert integrate(f, 2) == pytest.approx(np.sqrt(np.pi / 3.0), abs=1e-4)


def test_integrate_sup_norm_and_validation():
    g = Grid(16, 32)
    f = ScalarField.from_function(g, lambda y1, y2: -2.5 + 0 * y1)
    assert integrate(f, np.inf) == 2.5
    with pytest.raises(ValueError):
        integrate(f, 0.5)


@pytest.mark.parametrize("field", ["signed", "underflowing_tail"])
def test_integrate_matches_pow_reference(field):
    """The one-pass norms (products and a square root in place of pow) agree
    with the plain pow reference to 1e-15 relative; the max exactly."""
    g = Grid(48, 96)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(48, 96)) * np.exp(rng.uniform(-3.0, 3.0, size=(48, 96)))
    if field == "underflowing_tail":
        # the far tail of a compact bump: exact zeros and powers below the
        # smallest normal double
        vals[8:] = rng.choice([0.0, 1e-200, -1e-310, 5e-324], size=(40, 96))
    f = ScalarField(g, vals)
    norms = integrate(f, R_SET)
    assert list(norms) == list(R_SET)
    for r in R_SET:
        ref = pow_lr_norm(vals, g.cell_area, r)
        assert integrate(f, r) == norms[r]
        if r == np.inf:
            assert norms[r] == ref
        else:
            assert abs(norms[r] - ref) <= 1e-15 * ref


def test_integrate_sector_additivity():
    """Squared L^2 mass adds over disjoint angular sectors."""
    g = Grid(48, 96)
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.normal(size=(48, 96)))
    total = integrate(f, 2) ** 2
    half1 = float(np.sum(f.values[:, :48] ** 2 * g.cell_area[:, :48]))
    half2 = float(np.sum(f.values[:, 48:] ** 2 * g.cell_area[:, 48:]))
    assert total == pytest.approx(half1 + half2, rel=1e-12)


def test_mean_value_zero_for_odd_field():
    g = Grid(16, 32)
    f = ScalarField.from_function(g, lambda y1, y2: y1)
    assert abs(mean_value(f)) < 1e-14


def test_boundary_extrapolate_quadratic_exact():
    g = Grid(16, 8)
    vals = (1.0 - g.radii[:, None] ** 2) * np.ones((1, 8))
    assert np.max(np.abs(boundary_extrapolate(g, vals))) < 1e-13


def test_snapshot_roundtrip(tmp_path):
    g = Grid(12, 16)
    f = ScalarField(g, np.random.default_rng(0).normal(size=(12, 16)))
    path = tmp_path / "field.mdf"
    write_snapshot(path, f, 0.625)
    back, t = read_snapshot(path)
    assert t == 0.625
    assert np.array_equal(back.values, f.values)
    assert back.grid == g


def test_snapshot_format_bytes(tmp_path):
    """Header line then raw little-endian float64, radius-major."""
    g = Grid(4, 4)
    vals = np.arange(16, dtype=float).reshape(4, 4)
    path = tmp_path / "field.mdf"
    write_snapshot(path, ScalarField(g, vals), 1.5)
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == b"MDFLOW v1 scalar 4 4 1.5"
    assert payload == vals.astype("<f8").tobytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mdf"
    path.write_bytes(b"NOTMDFLOW 1 2 3\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_snapshot(path)


@pytest.mark.parametrize("dims", ["0 4", "-4 4", "4 -4"])
def test_snapshot_rejects_nonpositive_dimensions(tmp_path, dims):
    path = tmp_path / "bad.mdf"
    path.write_bytes(f"MDFLOW v1 scalar {dims} 0\n".encode() + bytes(128))
    with pytest.raises(ValueError, match="positive"):
        read_snapshot(path)


def test_snapshot_rejects_payload_size_mismatch(tmp_path):
    path = tmp_path / "field.mdf"
    write_snapshot(path, ScalarField.zeros(Grid(4, 4)), 0.0)
    raw = path.read_bytes()
    for bad in (raw[:-1], raw + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)


# header dimensions stay small, or beyond any index, so that no draw asks
# for a payload allocation of gigabytes
_DIMS = st.one_of(st.integers(-64, 64), st.integers(min_value=sys.maxsize + 1))


@st.composite
def _snapshot_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=512))
    n_r, n_theta = draw(_DIMS), draw(_DIMS)
    t = draw(st.sampled_from(["0", "0.5", "-1e308", "nan", "inf", "t", "1 2"]))
    cells = n_r * n_theta if 0 < n_r <= 64 and 0 < n_theta <= 64 else 0
    size = max(0, 8 * cells + draw(st.sampled_from([0, 0, -8, -1, 1, 8])))
    return f"MDFLOW v1 scalar {n_r} {n_theta} {t}\n".encode() + draw(
        st.binary(min_size=size, max_size=size))


@settings(max_examples=200, deadline=None)
@given(raw=_snapshot_bytes())
def test_read_snapshot_returns_field_or_value_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.mdf")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            field, t = read_snapshot(path)
        except (ValueError, OSError):
            return
    assert isinstance(field, ScalarField) and isinstance(t, float)


def test_field_shape_validation():
    g = Grid(8, 16)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 16)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((8, 16)), np.zeros((8, 8)))


def test_check_finite():
    g = Grid(8, 16)
    f = ScalarField.zeros(g)
    f.values[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        f.check_finite()
