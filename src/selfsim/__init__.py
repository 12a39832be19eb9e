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

from .api import RiemannSolution, solve_riemann
from .problem import ConstantStatesError, InvalidPartitionError, PhasePartition
from .profile import JumpRecord, eval_selfsimilar, eval_solution

__version__ = "0.1.0"

__all__ = [
    "ConstantStatesError",
    "InvalidPartitionError",
    "JumpRecord",
    "PhasePartition",
    "RiemannSolution",
    "eval_selfsimilar",
    "eval_solution",
    "solve_riemann",
]
