"""Travelling-wave solutions of the damped, driven sine-Gordon equation.

Closed-form evaluation of every unit-velocity branch, independent numerical
oracles (ODE integration, adaptive quadrature, finite-difference residuals)
and a leapfrog PDE simulator for empirical stability probes.
"""

from types import ModuleType as _ModuleType

from .closed_form import (
    F_map,
    FixedPoints,
    TravellingWave,
    WaveBranch,
    branch_compatible,
    g_eval,
    g_limits,
    g_slope,
    phi_eval,
    phi_limits,
    subcritical_rate,
    theta,
    xi_period,
    y_eval,
    y_fixed_points,
)
from .errors import BlowUp, DomainError, NoConvergence, SGWaveError
from .model import (
    ConstantSolutions,
    ModelParams,
    constant_solutions,
    energy_density,
    wrap_to,
)
from .oracles import (
    OdeSolution,
    adaptive_quadrature,
    identities_check,
    implicit_xi_of_g,
    ode_solve_g,
    ode_solve_y,
    pde_residual,
    quad_period,
)
from .pde_sim import (
    Circle,
    DeviationReport,
    FieldState,
    Perturbation,
    Segment,
    SimConfig,
    comoving_deviation,
    evolve,
    init_from_wave,
    step,
    total_energy,
    winding_number,
    write_deviation_csv,
    write_snapshot_csv,
)

__version__ = "0.1.0"

# the imports above are the public API: every name they bind that is not a submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
