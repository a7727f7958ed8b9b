"""2D incompressible ideal flow in a smoothly moving material domain.

The solver pulls the problem back to the fixed unit disk through a
unit-Jacobian map, homogenizes the boundary flux with a harmonic gradient
field, evolves the vorticity with a viscous regularization, and verifies
the a priori estimates (L^r monotonicity, tangency, uniform
vanishing-viscosity bounds) that make the construction work.
"""

from .diagnostics import (
    DiagnosticsRecord,
    RunLog,
    TestField,
    WeakFormAccumulator,
    make_test_field,
    record,
)
from .elliptic import (
    EllipticError,
    solve_dirichlet,
    solve_helmholtz,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    gradient,
    integrate,
    pushforward,
    read_snapshot,
    write_snapshot,
)
from .harness import FamilyReport, Scenario, run_family
from .homogenize import homogenization
from .motion import (
    MetricData,
    MotionSpec,
    boundary_flux,
    boundary_normal,
    custom_motion,
    identity_motion,
    material_velocity,
    metric_at,
    rotating_ellipse_motion,
    stretch_motion,
    translation_motion,
)
from .solver import (
    CFLError,
    SolverState,
    biot_savart,
    create_state,
    initial_condition,
    mollify_initial,
    run,
    step,
    trajectory,
)

__version__ = "0.1.0"
