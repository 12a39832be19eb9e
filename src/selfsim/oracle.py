"""Independent cross-checks for the Newton solve.

Three routes that share nothing with the optimizer beyond the kernel
function itself:

* ``fd_solve`` integrates the parabolic equation directly with an explicit
  conservative scheme on the antiderivative form u_t = A(u)_xx, starting
  from the sharp step; the self-similar profile must emerge on its own.
* ``grid_search_min`` minimizes the boundary objective by exhaustive lattice
  scan plus local refinement, derivative-free.
* ``stefan_bisection`` solves single-boundary degenerate-edge problems from
  the interface balance law alone, written out by hand, via bisection on a
  monotone residual.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from .entropy import entropy_value, sublevel_bounds
from .optimizer import initial_guess
from .problem import RiemannProblem, diffusion_antiderivative
from .profile import SelfSimilarProfile
from .special import heat_step_arc

_INF = math.inf
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest normal float

# fd_solve's domain and time step, grid_search_min's lattice (see their docstrings)
HALFWIDTH_FACTOR = 10.0
SAFETY = 0.9
# fd_solve refuses a run of more cell updates (cells x steps) than this: about
# six minutes at 3.5 ns per update
MAX_CELL_UPDATES = 1e11
COARSE_CELLS = 100
REFINE_ROUNDS = 3
REFINE_FACTOR = 10
# stefan_bisection stops once its bracket is at most this wide
BISECTION_TOL = 1e-13


class FDGrid(NamedTuple):
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
    block at lam * A(u_{n+1}).

    A step is seven numpy calls: the ``searchsorted`` of the whole grid and
    its bytes, compared with the last step's; lam * A formed in place by
    subtract, multiply and add; and ``u[1:end-1] += correlate(lam * A, (1,
    -2, 1))``, which forms the second difference of every inner cell.  Its
    products by 1 and -2 are exact, so a far-field cell, whose neighbours
    share its value, gets a Laplacian of exactly 0 and keeps its state.  So
    does every cell past the first of the flat block, where lam * A is one
    constant: the last four calls run on the window of cells below the flat
    block and its first two, ``end = cuts[-1] + 2``, and give the bits of
    the whole grid.  On the README problem at t = 1 and dx = 0.025 the
    window leaves out 14 % of the cell updates.  Only when the cuts move, a
    few percent of the steps, are the window and the blockwise slope, node
    and value rebuilt, by one ``repeat`` of their stacked table.  A cell
    count that overflows a float and a time step bound that underflows to 0
    are ``ValueError``s.  So is a run of more than ``MAX_CELL_UPDATES`` cell
    updates, cells times steps, which names its count, and a dx whose square
    is below the smallest normal float, where lam = dt/dx^2 loses digits.
    All of these are refused before the grid is allocated; a grid that
    then cannot be allocated is a ``ValueError`` naming its cell count.  A
    frozen step (a_max = 0) has half-width 0 and takes no steps: it returns
    the step on two cells at any dx.
    """
    if not (0.0 < t_final < _INF and 0.0 < dx < _INF):
        raise ValueError("t_final and dx must be positive and finite")
    nodes, avals = (np.array(v) for v in diffusion_antiderivative(problem.partition))
    a_max = max(problem.partition.coefficients)
    half_span = HALFWIDTH_FACTOR * a_max * math.sqrt(t_final) / dx
    if half_span == _INF:
        raise ValueError(
            f"an FD grid at dx = {dx!r} over t_final = {t_final!r} needs more cells than a float can count"
        )
    half_cells = int(math.ceil(half_span)) + 1
    cells = 2 * half_cells
    half_width = (half_cells - 0.5) * dx
    steps = 0
    if a_max > 0.0:
        denominator = 2.0 * a_max * a_max
        dt_bound = SAFETY * dx * dx / denominator if denominator > 0.0 else _INF
        if dt_bound == 0.0:
            raise ValueError(
                f"the FD time step bound dx^2 / (2 a_max^2) underflows to 0 at dx = {dx!r}, a_max = {a_max!r}"
            )
        steps = max(int(math.ceil(t_final / dt_bound)), 1)
        updates = cells * steps
        if updates > MAX_CELL_UPDATES:
            raise ValueError(
                f"an FD run of {cells} cells over {steps} steps is {updates:.3g} cell updates, "
                f"more than the {MAX_CELL_UPDATES:.3g} allowed"
            )
        if dx * dx < _TINY:
            raise ValueError(
                f"dx^2 = {dx * dx!r} at dx = {dx!r} is below the smallest normal float, "
                "so the FD step ratio dt / dx^2 would carry too few digits"
            )
    try:
        # the step from u_0 to u_{n+1}: cell i sits at x_i < 0 exactly when i < half_cells
        u = np.full(cells, nodes[-1])
    except MemoryError:
        raise ValueError(f"an FD grid of {cells:.6g} cells cannot be allocated") from None
    u[:half_cells] = nodes[0]
    if steps == 0:
        return FDGrid(half_width=half_width, dx=dx, dt=0.0, t_final=t_final, cells=u, steps=0)
    dt = t_final / steps
    lam = dt / (dx * dx)
    # block j (phase j, then the flat block above the last node) holds
    # lam * A(u) = slopes[j] * (u - nodes[j]) + values[j]
    slopes = np.append(lam * (np.diff(avals) / np.diff(nodes)), 0.0)
    values = lam * avals
    upper = nodes[1:]
    table = np.stack((slopes, nodes, values))
    stencil = np.array((1.0, -2.0, 1.0))
    edges = np.zeros(upper.size + 2, dtype=np.intp)  # 0, the cuts, the window's end
    seen = b""
    av = np.empty(u.size)
    # the loop's five callables, bound once rather than looked up on every step
    searchsorted, subtract, multiply, add, correlate = (
        u.searchsorted, np.subtract, np.multiply, np.add, np.correlate
    )
    for _ in range(steps):
        cuts = searchsorted(upper)  # cells below each upper node
        key = cuts.tobytes()
        if key != seen:
            seen = key
            edges[1:-1] = cuts
            # the window ends two cells into the flat block, past which every
            # Laplacian is exactly 0
            edges[-1] = end = min(cuts[-1] + 2, u.size)
            slope, base, value = np.repeat(table, np.diff(edges), axis=1)
            window, aw, inner = u[:end], av[:end], u[1 : end - 1]
        subtract(window, base, aw)
        multiply(aw, slope, aw)
        add(aw, value, aw)
        add(inner, correlate(aw, stencil), inner)
    return FDGrid(half_width=half_width, dx=dx, dt=dt, t_final=t_final, cells=u, steps=steps)


class ProfileDistance(NamedTuple):
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


class GridSearchResult(NamedTuple):
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
        flux_left = a0 * (u1 - u0) * heat_step_arc(-_INF, xi, a0)[1]
        left = u1
    else:
        flux_left = 0.0
        left = u0
    if a1 > 0.0:
        flux_right = a1 * (u2 - u1) * heat_step_arc(xi, _INF, a1)[2]
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
