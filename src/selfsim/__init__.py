"""Self-similar solutions of step-data problems for u_t = (a^2(u) u_x)_x.

The diffusion coefficient is piecewise constant in u and may vanish on whole
intervals.  The solver places the free phase boundaries by minimizing a
strictly convex objective whose stationarity conditions are exactly the
weak-solution matching conditions, then derives the profile v(x/sqrt(t))
from the boundary positions, states and coefficients.  Independent checks
(direct PDE integration, lattice search, bisection) live in
:mod:`selfsim.oracle`; the continuum-limit machinery for tabulated diffusion
functions lives in :mod:`selfsim.continuum`.
"""

from .api import (
    KIND_FROZEN_STEP,
    KIND_GENERAL,
    KIND_SINGLE_ARC,
    RiemannSolution,
    solve_riemann,
)
from .entropy import (
    EntropyReport,
    FreeBoundaries,
    InfeasibleBoundariesError,
    SublevelBox,
    entropy_gradient,
    entropy_hessian,
    entropy_report,
    entropy_shifted,
    entropy_value,
    feasible_values,
    shift_constant,
    sublevel_bounds,
)
from .optimizer import SolveOptions, SolveResult, initial_guess, minimize
from .problem import (
    BoundaryLayout,
    ConstantStatesError,
    InvalidPartitionError,
    PhasePartition,
    RiemannProblem,
    build_layout,
    diffusion_antiderivative,
    normalize_orientation,
    require_valid,
    validate,
)
from .profile import (
    JumpPoint,
    JumpRecord,
    SelfSimilarProfile,
    build_profile,
    eval_selfsimilar,
    eval_solution,
    flux,
    jump_residuals,
)
from .special import (
    heat_step,
    heat_step_deriv,
    heat_step_inverse,
    heat_step_vec,
    log_heat_step_deriv,
    log_heat_step_diff,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLayout",
    "ConstantStatesError",
    "EntropyReport",
    "FreeBoundaries",
    "InfeasibleBoundariesError",
    "InvalidPartitionError",
    "JumpPoint",
    "JumpRecord",
    "KIND_FROZEN_STEP",
    "KIND_GENERAL",
    "KIND_SINGLE_ARC",
    "PhasePartition",
    "RiemannProblem",
    "RiemannSolution",
    "SelfSimilarProfile",
    "SolveOptions",
    "SolveResult",
    "SublevelBox",
    "build_layout",
    "build_profile",
    "diffusion_antiderivative",
    "entropy_gradient",
    "entropy_hessian",
    "entropy_report",
    "entropy_shifted",
    "entropy_value",
    "feasible_values",
    "eval_selfsimilar",
    "eval_solution",
    "flux",
    "heat_step",
    "heat_step_deriv",
    "heat_step_inverse",
    "heat_step_vec",
    "log_heat_step_deriv",
    "log_heat_step_diff",
    "initial_guess",
    "jump_residuals",
    "minimize",
    "normalize_orientation",
    "require_valid",
    "shift_constant",
    "solve_riemann",
    "sublevel_bounds",
    "validate",
]
