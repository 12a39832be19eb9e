"""Continuum limit of the boundary objective.

As the state partition is refined, the per-interval objective turns into a
functional of the inverse profile xi(u):

    J(xi) = - int a(u)^2 ln(xi'(u)) du  +  (1/4) int xi(u)^2 du

over the state interval.  This module discretizes a tabulated diffusion
function into admissible partitions, evaluates J and its Euler-Lagrange
residual with convexity-preserving quadrature (composite midpoint values,
forward-difference slopes), minimizes J directly, and runs refinement
studies showing the discrete boundary solves converge to the continuum
minimizer.  Each evaluation forms J's cell terms once: the widths du and
midpoint values a of a state grid (``_cells``), the position gaps and
midpoints, and the slope term a^2 du / gap (``_slope_terms``), which J's
gradient and the Euler-Lagrange residual share.  A study builds each row
in its one pass over the cell counts.

Degenerate convention: where a vanishes the slope term is taken as zero
(0 * ln = 0) and the quadratic term survives; a flat run of xi across such a
band is the inverse picture of a jump, and ``minimize_variational_cost``
makes that run exact by giving the band's nodes one position.

Discretization and the refinement study run on Python floats, through
``profile._linspace`` and this module's ``_interp``, which give numpy's
``linspace`` and ``interp`` bit for bit; numpy is loaded only by the array
helpers behind ``variational_cost``, ``euler_lagrange_residual`` and
``minimize_variational_cost``, and by ``DiffusionFunction`` called on an
array.  The CLI imports this module for ``selfsim continuum`` alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .entropy import feasible_values, shift_constant
from .optimizer import damped_newton, minimize
from .problem import PhasePartition, normalize_orientation, require_valid
from .profile import _linspace
from .special import heat_step_inverse

if TYPE_CHECKING:
    import numpy as np

_JITTER = 1e-12
_GRID_TRIM = 0.05  # study grids keep off the ends, where xi(u) -> -+inf
_GRID_POINTS = 101
_CALLABLE_SAMPLES = 1025  # table points DiffusionFunction.from_callable takes


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """np.interp(x, xp, fp) at one float x for strictly increasing xp, bit for bit.

    Constant fp[0] left of xp[0] and fp[-1] from xp[-1] on; a node gives its
    own fp; elsewhere the chord from the node at the left, and from the node
    at the right where that is NaN.
    """
    if math.isnan(x):
        return x
    if x >= xp[-1]:
        return fp[-1]
    if x < xp[0]:
        return fp[0]
    j = bisect_right(xp, x) - 1
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    v = slope * (x - xp[j]) + fp[j]
    if math.isnan(v):
        v = slope * (x - xp[j + 1]) + fp[j + 1]
        if math.isnan(v) and fp[j] == fp[j + 1]:
            v = fp[j]
    return v


class _DiffusionSamples(NamedTuple):
    states: tuple[float, ...]
    values: tuple[float, ...]


class DiffusionFunction(_DiffusionSamples):
    """Tabulated a(u) >= 0 on [states[0], states[-1]], linear between samples."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        s, v = self.states, self.values
        if len(s) < 2 or len(v) != len(s):
            raise ValueError("need matching state/value samples, at least two")
        if not all(map(math.isfinite, (*s, *v))):
            raise ValueError("samples must be finite")
        if not all(b > a for a, b in zip(s, s[1:])):
            raise ValueError("sample states must be strictly increasing")
        if any(a < 0.0 for a in v):
            raise ValueError("diffusion values must be nonnegative")
        return self

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], lo: float, hi: float
    ) -> "DiffusionFunction":
        s = _linspace(lo, hi, _CALLABLE_SAMPLES)
        return cls(states=tuple(s), values=tuple(float(fn(u)) for u in s))

    @property
    def lo(self) -> float:
        return self.states[0]

    @property
    def hi(self) -> float:
        return self.states[-1]

    def __call__(self, u):
        """a(u) at one state, or at each entry of an array of states."""
        if isinstance(u, (int, float)):
            return _interp(u, self.states, self.values)
        import numpy as np

        return np.interp(u, self.states, self.values)


class _InverseNodes(NamedTuple):
    states: tuple[float, ...]
    positions: tuple[float, ...]


class InverseProfile(_InverseNodes):
    """xi as a function of the state: nodes (states[i], positions[i]).

    Positions are nondecreasing; a flat run marks a jump of the forward
    profile (the whole state band passes at one location), which is how
    degenerate phases appear in the inverse picture.  Away from those bands
    the positions must be strictly increasing for slopes to make sense.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        s, p = self.states, self.positions
        if len(s) < 2 or len(p) != len(s):
            raise ValueError("need matching state/position nodes, at least two")
        if not all(map(math.isfinite, (*s, *p))):
            raise ValueError("nodes must be finite")
        if not all(b > a for a, b in zip(s, s[1:])):
            raise ValueError("states must be strictly increasing")
        if any(b < a for a, b in zip(p, p[1:])):
            raise ValueError("positions must be nondecreasing")
        return self

    def cells(self) -> int:
        return len(self.states) - 1


def discretize(f: DiffusionFunction, cells: int) -> PhasePartition:
    """Uniform-cell partition with midpoint coefficients.

    Adjacent zero cells merge into one degenerate cell; adjacent equal
    positive coefficients get a relative 1e-12 jitter on the later cell, so
    the output always satisfies the partition rules.  Both adjustments are
    visible in the returned breakpoints/coefficients.
    """
    if cells < 1:
        raise ValueError("need at least one cell")
    edges = _linspace(f.lo, f.hi, cells + 1)
    bps: list[float] = [edges[0]]
    cs: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        a = f(0.5 * (lo + hi))
        if cs and a == 0.0 and cs[-1] == 0.0:
            bps[-1] = hi  # extend the degenerate cell
        else:
            cs.append(a)
            bps.append(hi)
    for k in range(1, len(cs)):
        if cs[k] == cs[k - 1]:
            cs[k] = cs[k] * (1.0 + _JITTER)
    partition = PhasePartition(breakpoints=tuple(bps), coefficients=tuple(cs))
    require_valid(partition)
    return partition


def _cells(f: DiffusionFunction, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widths du of the cells between the states w, and a at their midpoints."""
    return w[1:] - w[:-1], f(0.5 * (w[:-1] + w[1:]))


def _cell_data(f: DiffusionFunction, profile: InverseProfile):
    import numpy as np

    xi = np.asarray(profile.positions, dtype=float)
    du, a = _cells(f, np.asarray(profile.states, dtype=float))
    gap = np.diff(xi)
    flat = (a > 0.0) & (gap <= 0.0)
    if np.any(flat):
        raise ValueError(f"profile is flat on a nondegenerate cell (cell {int(np.argmax(flat))})")
    return xi, du, gap, a


def _slope_terms(gap: np.ndarray, du: np.ndarray, a: np.ndarray) -> np.ndarray:
    # a^2 du / gap, a^2 over the cell's slope gap / du; 0 on a degenerate cell
    import numpy as np

    return np.divide(a**2 * du, gap, out=np.zeros(du.size), where=a > 0.0)


def _cost(gap: np.ndarray, mid: np.ndarray, du: np.ndarray, a: np.ndarray) -> float:
    # J from its cells' gaps and midpoints: composite midpoint rule, forward-difference slopes
    import numpy as np

    pos = a > 0.0
    total = float(np.sum(0.25 * mid * mid * du))
    total -= float(np.sum(a[pos] ** 2 * np.log(gap[pos] / du[pos]) * du[pos]))
    return total


def variational_cost(f: DiffusionFunction, profile: InverseProfile) -> float:
    """J by composite midpoint rule, slopes by forward differences."""
    xi, du, gap, a = _cell_data(f, profile)
    return _cost(gap, 0.5 * (xi[:-1] + xi[1:]), du, a)


def euler_lagrange_residual(f: DiffusionFunction, profile: InverseProfile) -> np.ndarray:
    """Stationarity defect xi/2 + d/du (a^2 / xi') at the interior nodes.

    The divergence term is the central difference of the per-cell quantity
    a^2/slope across each node.  Endpoints and nodes touching a degenerate
    cell carry NaN: the pointwise equation only holds where a > 0.
    """
    import numpy as np

    xi, du, gap, a = _cell_data(f, profile)
    s = _slope_terms(gap, du, a)
    live = (a[:-1] > 0.0) & (a[1:] > 0.0)
    inner = 0.5 * xi[1:-1] + (s[1:] - s[:-1]) / (0.5 * (du[:-1] + du[1:]))
    return np.concatenate(([math.nan], np.where(live, inner, math.nan), [math.nan]))


class CostMinimum(NamedTuple):
    profile: InverseProfile
    cost: float
    grad_norm: float
    iterations: int
    converged: bool


def minimize_variational_cost(f: DiffusionFunction, cells: int) -> CostMinimum:
    """Newton minimization of J over the node positions on a uniform grid.

    No end is pinned: the functional's quadratic part keeps the positions
    finite.  The two nodes of each zero-coefficient cell share one unknown,
    as ``RiemannProblem.slots`` fuses the boundaries around a dead interval,
    so a degenerate band is an exact flat run; its ``gap >= 0`` constraint
    would be active at the minimum, which free Newton cannot reach.  Node i
    takes unknown ``slots[i]``, the number of live cells left of it.  The
    Hessian stays symmetric tridiagonal — a live cell couples two adjacent
    unknowns, a dead one only adds to its unknown's diagonal — so the
    boundary-objective Newton machinery applies unchanged.  On one cell J
    is unbounded below (the quadratic pins only the midpoint, so the gap
    grows without limit); two or more cells pin every node.
    """
    import numpy as np

    if cells < 2:
        raise ValueError("need at least two cells: on one the cost is unbounded below")
    w = np.linspace(f.lo, f.hi, cells + 1)
    du, a = _cells(f, w)
    a_max = float(np.max(a))
    if a_max == 0.0:
        raise ValueError("diffusion vanishes identically")
    pos = a > 0.0
    slots = np.concatenate(([0], np.cumsum(pos)))
    unknowns = int(slots[-1]) + 1

    def objective(y: list[float]):
        x = np.asarray(y)[slots]
        gap = np.diff(x)
        mid = 0.5 * (x[:-1] + x[1:])
        s = _slope_terms(gap, du, a)
        quad = 0.25 * mid * du
        g = np.zeros(x.size)
        g[:-1] += s + quad
        g[1:] += -s + quad
        q = np.divide(a**2 * du, gap * gap, out=np.zeros(du.size), where=pos)
        r = 0.125 * du
        qr = q + r
        hd = np.zeros(x.size)
        hd[:-1] += qr
        hd[1:] += qr
        ho = -q + r
        # sum over each unknown's nodes; a dead cell's coupling joins its diagonal
        hd = np.bincount(slots, weights=hd) + np.bincount(
            slots[:-1][~pos], weights=2.0 * ho[~pos], minlength=unknowns
        )
        g = np.bincount(slots, weights=g)
        return _cost(gap, mid, du, a), g.tolist(), hd.tolist(), ho[pos].tolist()

    h = float(np.min(du))
    fracs = (w - f.lo + 0.5 * h) / (f.hi - f.lo + h)  # nondecreasing, from fracs[0] = h / 2 / (span + h)
    start = a_max * np.array([heat_step_inverse(min(p, 1.0 - fracs[0])) for p in fracs])
    start = np.bincount(slots, weights=start) / np.bincount(slots)  # each unknown's mean
    outcome = damped_newton(start, objective, feasible_values, a_max)
    profile = InverseProfile(tuple(w.tolist()), tuple(np.asarray(outcome.x)[slots].tolist()))
    return CostMinimum(profile, outcome.value, outcome.grad_norm, outcome.iterations, outcome.converged)


class StudyRow(NamedTuple):
    cells: int
    partition: PhasePartition
    boundaries: tuple[float, ...]  # solved nominal positions, fused repeated
    inverse: InverseProfile  # boundary polyline read onto the common grid
    shifted_entropy: float
    distance_to_finest: float


def convergence_study(f: DiffusionFunction, cell_counts: Sequence[int]) -> tuple[StudyRow, ...]:
    """Solve the discretized problem at each resolution and compare inverses.

    Each row discretizes, solves the boundary problem, and reads the
    polyline through the solved nodes (u_k, xi_k) onto one fixed state grid
    (trimmed 5% off each end, where the exact inverse diverges).  The last
    row is the reference for the sup-norm distance column; its own entry is
    zero.  Shifted-objective values are reported because they are the ones
    with a refinement limit.
    """
    counts = list(cell_counts)
    if len(counts) < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("cell counts must be increasing and nonempty")
    width = f.hi - f.lo
    grid = _linspace(f.lo + _GRID_TRIM * width, f.hi - _GRID_TRIM * width, _GRID_POINTS)
    rows = []
    for cells in counts:
        partition = discretize(f, cells)
        if partition.n < 1:
            raise ValueError(f"{cells} cells leave no free boundary after merging")
        problem = normalize_orientation(f.lo, f.hi, partition)
        result = minimize(problem)
        if not result.converged:
            raise RuntimeError(
                f"boundary solve did not converge at {cells} cells (stopped on {result.stop_reason})"
            )
        nominal = problem.expand(result.x)
        inner = partition.breakpoints[1:-1]
        inverse = InverseProfile(tuple(grid), tuple(_interp(u, inner, nominal) for u in grid))
        # the distance column is filled in below, once the finest row is known
        rows.append(StudyRow(cells, partition, nominal, inverse, result.value + shift_constant(problem), math.nan))
    finest = rows[-1].inverse.positions
    return tuple(
        row._replace(distance_to_finest=max(abs(v - w) for v, w in zip(row.inverse.positions, finest)))
        for row in rows
    )
