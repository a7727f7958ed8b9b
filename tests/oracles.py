"""Independent oracles for the tests: series Bessel functions, bisection
roots, and finite differences.  Deliberately avoids the library code paths
(and scipy.special) so expected values come from a second route."""

import numpy as np


def bessel_j0(x):
    """J0 by its power series; plenty of terms for |x| <= 12."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    term = np.ones_like(x)
    q = (x / 2.0) ** 2
    for k in range(0, 40):
        if k > 0:
            term = term * (-q) / (k * k)
        total = total + term
    return total


def bessel_j1(x):
    """J1 by its power series."""
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    total = np.zeros_like(x)
    term = half.copy()
    q = half ** 2
    for k in range(0, 40):
        if k > 0:
            term = term * (-q) / (k * (k + 1))
        total = total + term
    return total


def bessel_j01() -> float:
    """First positive zero of J0 by bisection on the series."""
    lo, hi = 2.0, 3.0
    flo = float(bessel_j0(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = float(bessel_j0(mid))
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def fd_jacobian(fn, x, h=1e-5):
    """Central finite-difference Jacobian of a 2-vector map."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[:, j] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h)
    return out


def fd_time(fn, t, h=1e-5):
    """Central finite difference in time of a scalar or vector function."""
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def observed_order(errors, factor=2.0):
    """Convergence orders from successive errors under refinement by factor."""
    errors = np.asarray(errors, dtype=float)
    return np.log(errors[:-1] / errors[1:]) / np.log(factor)


def ellipse_kappa(m, t):
    """Strength of Lamb's x1*x2 harmonic for the rotating ellipse, from
    the motion's own parameters (Hydrodynamics, sec. 72)."""
    ax, ay = m.params["a_x"], m.params["a_y"]
    return m.params["phi_dot"](t) * (ax ** 2 - ay ** 2) / (ax ** 2 + ay ** 2)
