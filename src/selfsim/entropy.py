"""The convex objective whose minimizer places the free boundaries.

For nominal boundaries -inf = xi_0 < xi_1 <= ... <= xi_n < xi_{n+1} = +inf
(fused pairs are equal) the objective is a sum of one term per interval:

    a_k > 0:   -a_k^2 (u_{k+1} - u_k) * ln( H(xi_{k+1}/a_k) - H(xi_k/a_k) )
    a_k = 0:    (u_{k+1} - u_k) * s_k^2 / 4

with H = heat_step and s_k the one finite boundary adjacent to the degenerate
interval (xi_1 for the left edge, xi_n for the right edge, the fused position
for an interior interval).  Every term is positive; log terms blow up as the
enclosing boundaries collapse, so the feasible set is an open barrier-guarded
region, and the whole sum is strictly convex with a symmetric tridiagonal
Hessian in the free variables.

Stationarity of the objective is exactly the set of matching conditions of
the self-similar weak solution: flux continuity across each boundary where
u is continuous, and the interface balance law where u jumps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .problem import RiemannProblem
from .special import heat_step_arc, log_heat_step_inverse

_INF = math.inf
_LN2 = math.log(2.0)


class InfeasibleBoundariesError(ValueError):
    """Raised when boundary values are not strictly increasing and finite."""


def feasible_values(values) -> bool:
    """Whether ``values`` is nonempty, finite and strictly increasing."""
    prev = -_INF
    for v in values:
        # fails on NaN, on either infinity and on a pair that does not increase
        if not prev < v < _INF:
            return False
        prev = v
    return prev > -_INF


def entropy_pass(problem: RiemannProblem, values):
    """The objective at ``values`` in one pass over the intervals.

    Returns ``(value, gradient, hess_diag, hess_off)``, three lists of floats
    with the symmetric tridiagonal Hessian as its diagonal and first
    off-diagonal.  ``values`` are the m free positions, a sequence of
    floats, and must already be feasible (``feasible_values``): this kernel
    does not check them, and ``heat_step_arc`` raises ``ValueError`` on a
    live interval whose two boundaries are not increasing.  Each interval
    takes one ``heat_step_arc`` call, whose ln D and end ratios all three
    pieces share.  Where the distance between the two boundaries of a live
    interval divided by a underflows to 0, the value is +inf, outside the
    domain, so a line search backtracks from it; the gradient and Hessian
    are only defined where the value is finite.
    """
    full = (-_INF, *problem.expand(values), _INF)  # xi_0 .. xi_{n+1}
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    m = problem.m
    slots = problem.slots
    total = 0.0
    g = [0.0] * m
    hd = [0.0] * m
    ho = [0.0] * max(m - 1, 0)
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            lo = full[k]
            hi = full[k + 1]
            # In the scaled ends x = hi/a, y = lo/a, with R = H'/dH and the
            # curvatures c of -ln dH from ``heat_step_arc``, the term of
            # interval k adds +a du R(y) and -a du R(x) to the gradient, du c_y
            # and du c_x to the diagonal and -du R(x) R(y) to the off-diagonal
            # (the a^2 prefactor cancels the chain rule in the second order)
            logdf, rx, ry, cx, cy = heat_step_arc(lo, hi, a)
            total -= a * a * du * logdf
            if k >= 1:
                g[slots[k - 1]] += a * du * ry
                hd[slots[k - 1]] += du * cy
            if k <= n - 1:
                g[slots[k]] -= a * du * rx
                hd[slots[k]] += du * cx
            if 1 <= k <= n - 1:
                # endpoints live in adjacent distinct slots by construction
                ho[slots[k - 1]] -= du * rx * ry
        else:
            # du s^2/4 at the one finite boundary s = xi_max(k, 1) the interval keeps
            b = max(k, 1)
            s = full[b]
            total += 0.25 * du * s * s
            g[slots[b - 1]] += 0.5 * du * s
            hd[slots[b - 1]] += 0.5 * du
    return total, g, hd, ho


def entropy_value(problem: RiemannProblem, values: Sequence[float]) -> float:
    """The objective at the m free positions ``values``, checked for feasibility."""
    if len(values) != problem.m:
        raise ValueError(f"expected {problem.m} free boundaries, got {len(values)}")
    if problem.m == 0:
        raise ValueError("problem has no free boundaries (n = 0)")
    if not feasible_values(values):
        raise InfeasibleBoundariesError(f"boundaries must be strictly increasing and finite, got {values!r}")
    return entropy_pass(problem, [float(v) for v in values])[0]


def shift_constant(problem: RiemannProblem) -> float:
    """The data-only constant added by the shifted objective.

    Adding a_k^2 du_k ln(du_k / a_k) per nondegenerate interval keeps the
    objective bounded under partition refinement without moving the argmin.
    """
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    total = 0.0
    for k, a in enumerate(cs):
        if a > 0.0:
            du = u[k + 1] - u[k]
            total += a * a * du * math.log(du / a)
    return total


class SublevelBox(NamedTuple):
    """Certified bounds on the sublevel set {E <= c}.

    Every feasible point with objective at most c has all boundaries within
    [-radius, radius] and any two distinct free positions at least ``gap``
    apart.
    """

    radius: float
    gap: float


def sublevel_bounds(problem: RiemannProblem, c: float) -> SublevelBox:
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    if n < 1:
        raise ValueError("sublevel bounds need at least one free boundary")
    weights = []
    for k, a in enumerate(cs):
        du = u[k + 1] - u[k]
        weights.append(a * a * du if a > 0.0 else 0.25 * du)
    m_const = min(weights)
    log_delta = -c / m_const if c > 0.0 else 0.0
    # every positive term is at most c, so each log argument is at least
    # delta = exp(log_delta) and each quadratic boundary obeys du s^2/4 <= c.
    # An edge arc's scaled boundary is then at least H^-1(min(delta, 1/2)),
    # taken from ln delta, which does not underflow; where c / m overflows,
    # -2 sqrt(c / m) bounds it, as H(-2 sqrt(L)) < exp(-L) for L > 1/(4 pi)
    if log_delta > -_INF:
        x_edge = log_heat_step_inverse(min(log_delta, -_LN2))
    else:
        x_edge = -2.0 * math.sqrt(c) / math.sqrt(m_const)
    du0 = u[1] - u[0]
    dun = u[n + 1] - u[n]
    cpos = max(c, 0.0)
    r_left = -cs[0] * x_edge if cs[0] > 0.0 else 2.0 * math.sqrt(cpos / du0)
    r_right = -cs[-1] * x_edge if cs[-1] > 0.0 else 2.0 * math.sqrt(cpos / dun)
    inner_pos = [cs[k] for k in range(1, n) if cs[k] > 0.0]
    gap = math.exp(log_delta) * min(inner_pos) if inner_pos else 0.0
    return SublevelBox(radius=max(r_left, r_right), gap=gap)
