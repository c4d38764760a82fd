"""Numerical laboratory for 1-D semilinear reaction-diffusion gradient flows.

Simulates u_t = Lap(u) - u^N + sum_i a_i(x) u^i with an IMEX scheme,
evaluates the action and windowed-energy functionals, catalogs equilibria,
audits connecting orbits by their energy accounting, and detects blow-up.
"""

from .dynamics import (
    BLOW_UP,
    CONVERGED,
    T_MAX_REACHED,
    StepControl,
    Trajectory,
    run,
)
from .equilibria import (
    Equilibrium,
    constant_equilibria,
    newton_refine,
    shoot,
    unstable_direction,
)
from .functionals import action, energy_addend, identity_residual
from .grid import Field, SpatialGrid, integrate, sup_norm
from .nonlinearity import Nonlinearity, RangeOverflowError
from .problem import ProblemSpec, SpecValidationError, coefficient_norms, make_grid

__version__ = "0.1.0"
