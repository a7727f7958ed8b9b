import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mdflow.motion import (
    custom_motion,
    identity_motion,
    rotating_ellipse_motion,
    stretch_motion,
    translation_motion,
)


def builtin_motions(horizon=1.0):
    """One instance of every built-in motion kind."""
    return {
        "identity": identity_motion(horizon),
        "translation": translation_motion(
            lambda t: np.array([t, 0.5 * t * t]),
            lambda t: np.array([1.0, t]),
            horizon,
        ),
        "stretch": stretch_motion(lambda t: 0.2 * t, lambda t: 0.2, horizon),
        "rotating_ellipse": rotating_ellipse_motion(
            np.sqrt(2.0), lambda t: t, lambda t: 1.0, horizon
        ),
    }


def custom_affine_motion(horizon=1.0):
    """Plug-in motion combining stretch, shear, rotation and translation:
    S(t) = R(phi) H(s) D(a) with phi = 0.8 t, s = 0.3 t, a = 0.25 t, and
    offset d(t) = (0.2 t, -0.1 t^2)."""
    def parts(t):
        c, s = np.cos(0.8 * t), np.sin(0.8 * t)
        R = np.array([[c, -s], [s, c]])
        H = np.array([[1.0, 0.3 * t], [0.0, 1.0]])
        D = np.diag([np.exp(0.25 * t), np.exp(-0.25 * t)])
        return R, H, D

    def inv(t):
        R, H, D = parts(t)
        return R @ H @ D

    def inv_dt(t):
        R, H, D = parts(t)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        H_dot = np.array([[0.0, 0.3], [0.0, 0.0]])
        D_dot = 0.25 * np.diag([np.exp(0.25 * t), -np.exp(-0.25 * t)])
        return 0.8 * R @ J @ H @ D + R @ H_dot @ D + R @ H @ D_dot

    return custom_motion(
        lambda t: np.linalg.inv(inv(t)), inv, inv_dt,
        lambda t: np.array([0.2 * t, -0.1 * t * t]),
        lambda t: np.array([0.2, -0.2 * t]),
        horizon,
    )


@pytest.fixture(scope="session")
def motions():
    return builtin_motions()


@pytest.fixture(params=list(builtin_motions().keys()))
def motion_kind(request):
    return request.param
