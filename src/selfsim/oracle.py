"""Independent cross-checks for the Newton solve.

Three routes that share nothing with the optimizer beyond the kernel
function itself:

* ``fd_solve`` integrates the parabolic equation directly with an explicit
  conservative scheme on the antiderivative form u_t = A(u)_xx, starting
  from the sharp step; the self-similar profile must emerge on its own.
* ``grid_search_min`` minimizes the boundary objective by exhaustive lattice
  scan plus local refinement, no derivatives involved.
* ``stefan_bisection`` solves single-boundary degenerate-edge problems from
  the interface balance law alone, written out by hand, via bisection on a
  monotone residual.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_value, sublevel_bounds
from .optimizer import initial_guess
from .problem import RiemannProblem, diffusion_antiderivative
from .profile import SelfSimilarProfile
from .special import heat_step_ratios, log_heat_step_diff

_INF = math.inf
_EPS = sys.float_info.epsilon

# fd_solve's domain and time step, grid_search_min's lattice (see their docstrings)
HALFWIDTH_FACTOR = 10.0
SAFETY = 0.9
COARSE_CELLS = 100
REFINE_ROUNDS = 3
REFINE_FACTOR = 10
# stefan_bisection stops once its bracket is at most this wide
BISECTION_TOL = 1e-13


@dataclass(frozen=True)
class FDGrid:
    """State of the explicit integrator at the final time.

    Cell i sits at x_i = -half_width + i*dx; the initial jump fell between
    the two middle cells, half a cell off the origin on each side, so the
    diffusivity is never evaluated exactly at a breakpoint state.
    """

    half_width: float
    dx: float
    dt: float
    t_final: float
    cells: np.ndarray
    steps: int

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.cells.size) * self.dx - self.half_width


def fd_solve(problem: RiemannProblem, t_final: float, dx: float) -> FDGrid:
    """Integrate u_t = A(u)_xx from step data up to t_final.

    Second differences of the piecewise-linear antiderivative A need no
    face-averaged coefficients and stay well defined where the diffusivity
    jumps or vanishes.  Ends are pinned to the far-field states; the domain
    half-width of at least ``HALFWIDTH_FACTOR * a_max * sqrt(t_final)`` puts
    the boundary error far below the scheme's own truncation error.  The
    time step is ``SAFETY`` times the explicit stability bound
    dx^2 / (2 max A'), which also makes the update monotone (order
    preserving), so comparison arguments apply to the discrete solution.
    A coefficient so small that the bound overflows, or its square
    underflows, still gets one step over the whole horizon.

    Monotone and translation invariant, the update keeps the cells sorted:
    the step data is nondecreasing in x, so is its shift by one cell, and
    the shift stays above the unshifted solution (Crandall & Majda, Math.
    Comp. 34, 1980).  Each phase of A is therefore one contiguous block of
    cells, found per step by a single ``searchsorted`` of the phase nodes
    into the cells.  Rounding can still swap two neighbours that agree to
    an ulp, as under any cellwise evaluation of A; such a cell lands at
    worst on the adjacent phase's line, within an ulp of their shared node,
    where both lines give A to rounding.  A is evaluated blockwise as
    ``slope * (u - node) + A(node)``, with lam = dt/dx^2 folded into slope
    and value.  Measuring u from the block's node keeps the rounding
    independent of where the states sit (``slope * u + intercept`` loses
    digits in proportion to |u| / |u_{n+1} - u_0|: 2e-11 of the jump on
    heat from 1e4 to 1e4 + 1).  Cells at or above the last node form a flat
    block at lam * A(u_{n+1}), so the far field keeps an exactly zero
    Laplacian.
    """
    if not (0.0 < t_final < _INF and 0.0 < dx < _INF):
        raise ValueError("t_final and dx must be positive and finite")
    nodes, avals = (np.array(v) for v in diffusion_antiderivative(problem.partition))
    a_max = max(problem.partition.coefficients)
    half_cells = int(math.ceil(HALFWIDTH_FACTOR * max(a_max, 1.0) * math.sqrt(t_final) / dx)) + 1
    x = (np.arange(2 * half_cells) - half_cells + 0.5) * dx
    u = np.where(x < 0.0, nodes[0], nodes[-1])  # the step from u_0 to u_{n+1}
    half_width = (half_cells - 0.5) * dx
    if a_max == 0.0:
        return FDGrid(half_width=half_width, dx=dx, dt=0.0, t_final=t_final, cells=u, steps=0)
    denominator = 2.0 * a_max * a_max
    dt_bound = SAFETY * dx * dx / denominator if denominator > 0.0 else _INF
    steps = max(int(math.ceil(t_final / dt_bound)), 1)
    dt = t_final / steps
    lam = dt / (dx * dx)
    # block j (phase j, then the flat block above the last node) holds
    # lam * A(u) = slopes[j] * (u - nodes[j]) + values[j]
    slopes = np.append(lam * (np.diff(avals) / np.diff(nodes)), 0.0)
    values = lam * avals
    upper = nodes[1:]
    seen = b""
    av = np.empty(u.size)
    lap = np.empty(u.size - 2)
    inner = u[1:-1]
    av_right, av_mid, av_left = av[2:], av[1:-1], av[:-2]
    for _ in range(steps):
        cuts = np.searchsorted(u, upper)  # cells below each upper node
        if cuts.tobytes() != seen:
            seen = cuts.tobytes()
            counts = np.diff(cuts, prepend=0, append=u.size)
            slope, base, value = (np.repeat(v, counts) for v in (slopes, nodes, values))
        np.subtract(u, base, out=av)
        av *= slope
        av += value
        # lam * (A_{i+1} - 2 A_i + A_{i-1}) in one reused buffer
        np.multiply(2.0, av_mid, out=lap)
        np.subtract(av_right, lap, out=lap)
        np.add(lap, av_left, out=lap)
        inner += lap
    return FDGrid(half_width=half_width, dx=dx, dt=dt, t_final=t_final, cells=u, steps=steps)


@dataclass(frozen=True)
class ProfileDistance:
    l1: float
    l1_relative: float  # l1 over the mass the profile moved from the step (0 when both round away)
    linf_away_from_jumps: float


def compare_profiles(fd: FDGrid, profile: SelfSimilarProfile) -> ProfileDistance:
    """Distances between a direct integration and the assembled profile.

    L1 by the trapezoid rule on the grid; the sup-norm column excludes cells
    within one cell width of each discontinuity, where any fixed grid pays
    an O(1) penalty for resolving a genuine jump.  An L1 distance or moved
    mass within one cell of rounding, eps |u_+ - u_-| dx, is zero: a
    profile that moved no more than that is matched when the distance is
    that small too, and infinitely wrong otherwise.
    """
    scale = math.sqrt(fd.t_final)
    x = fd.positions
    exact = profile.sample(x / scale)
    diff = np.abs(fd.cells - exact)
    l1 = float(np.trapezoid(diff, dx=fd.dx))
    step0 = np.where(x < 0.0, profile.left_state, profile.right_state)
    mass = float(np.trapezoid(np.abs(exact - step0), dx=fd.dx))
    keep = np.ones(diff.shape, dtype=bool)
    for jump in profile.jumps():
        keep &= np.abs(x - jump.location * scale) > fd.dx
    linf = float(np.max(diff[keep])) if np.any(keep) else 0.0
    floor = _EPS * abs(profile.right_state - profile.left_state) * fd.dx
    return ProfileDistance(
        l1=l1,
        l1_relative=l1 / mass if mass > floor else (0.0 if l1 <= floor else math.inf),
        linf_away_from_jumps=linf,
    )


@dataclass(frozen=True)
class GridSearchResult:
    minimizer: tuple[float, ...]
    value: float
    round_values: tuple[float, ...]  # best objective after each round


def grid_search_min(problem: RiemannProblem) -> GridSearchResult:
    """Derivative-free minimizer: scan a certified lattice, then refine.

    The first round enumerates every increasing tuple of lattice points
    h*Z within the sublevel box of the starting guess, which the true
    minimizer cannot leave, with h the box radius over ``COARSE_CELLS``.
    Each of ``REFINE_ROUNDS`` refinement rounds re-grids the incumbent's
    neighborhood with a ``REFINE_FACTOR`` times finer step; the incumbent
    is always a candidate, so round bests never increase.
    Intended as an oracle for m <= 3; the cost is exponential in m.
    """
    m = problem.m
    if m < 1:
        raise ValueError("problem has no free boundaries (n = 0)")
    if m > 3:
        raise ValueError(f"lattice search is limited to m <= 3, got m={m}")

    best_x = initial_guess(problem)
    best_v = entropy_value(problem, best_x)
    radius = max(sublevel_bounds(problem, best_v).radius, 1e-6)
    step = radius / COARSE_CELLS
    k = int(math.ceil(radius / step))
    axis = step * np.arange(-k, k + 1)
    for combo in itertools.combinations(axis, m):
        v = entropy_value(problem, tuple(float(c) for c in combo))
        if v < best_v:
            best_v, best_x = v, tuple(float(c) for c in combo)
    round_values = [best_v]
    for _ in range(REFINE_ROUNDS):
        fine = step / REFINE_FACTOR
        offsets = fine * np.arange(-REFINE_FACTOR, REFINE_FACTOR + 1)
        axes = [b + offsets for b in best_x]
        for combo in itertools.product(*axes):
            if any(combo[j + 1] <= combo[j] for j in range(m - 1)):
                continue
            v = entropy_value(problem, tuple(float(c) for c in combo))
            if v < best_v:
                best_v, best_x = v, tuple(float(c) for c in combo)
        round_values.append(best_v)
        step = fine
    return GridSearchResult(
        minimizer=best_x,
        value=best_v,
        round_values=tuple(round_values),
    )


def _interface_residual(problem: RiemannProblem, xi: float) -> float:
    # Hand-coded balance at the single boundary of an n = 1 problem:
    # (right - left) * xi / 2 + flux from the right - flux from the left,
    # each flux written directly from the arc shape on its side.  Strictly
    # increasing in xi, -inf to +inf, so bisection cannot miss the root.
    u0, u1, u2 = problem.partition.breakpoints
    a0, a1 = problem.partition.coefficients
    if a0 > 0.0:
        s = xi / a0
        r, _, _, _ = heat_step_ratios(s, -_INF, log_heat_step_diff(s, -_INF))
        flux_left = a0 * (u1 - u0) * r
        left = u1
    else:
        flux_left = 0.0
        left = u0
    if a1 > 0.0:
        s = xi / a1
        _, r, _, _ = heat_step_ratios(_INF, s, log_heat_step_diff(_INF, s))
        flux_right = a1 * (u2 - u1) * r
        right = u1
    else:
        flux_right = 0.0
        right = u2
    return 0.5 * (right - left) * xi + flux_right - flux_left


def stefan_bisection(problem: RiemannProblem) -> float:
    """Boundary position of a degenerate-edge n = 1 problem by bisection.

    Exactly one of the two phases must carry zero diffusion, so the single
    boundary obeys a scalar flux balance: the constant side contributes the
    moving-interface term, the diffusive side the one-sided flux.
    """
    if problem.partition.n != 1:
        raise ValueError(
            f"bisection oracle handles exactly one boundary, got n={problem.partition.n}"
        )
    a0, a1 = problem.partition.coefficients
    if (a0 == 0.0) == (a1 == 0.0):
        raise ValueError("bisection oracle needs exactly one degenerate edge phase")
    w = 2.0 * max(max(a0, a1), 1.0)
    lo, hi = -w, w
    for _ in range(200):
        if _interface_residual(problem, lo) < 0.0 < _interface_residual(problem, hi):
            break
        lo, hi = 2.0 * lo, 2.0 * hi
    for _ in range(200):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if _interface_residual(problem, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
