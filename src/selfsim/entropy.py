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
from dataclasses import dataclass

from .problem import RiemannProblem
from .special import heat_step_inverse, heat_step_ratios, log_heat_step_diff

_INF = math.inf


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


def _full_positions(problem: RiemannProblem, values: Sequence[float]) -> tuple[float, ...]:
    # xi_0 .. xi_{n+1} with the infinite sentinels attached
    return (-_INF,) + problem.expand(values) + (_INF,)


def _anchor(k: int, n: int) -> int:
    # the finite boundary whose position enters a degenerate interval's term
    if k == 0:
        return 1
    if k == n:
        return n
    return k


def entropy_pass(problem: RiemannProblem, values, derivatives: bool = True):
    """The objective at ``values`` in one pass over the intervals.

    Returns the value alone when ``derivatives`` is false; otherwise
    ``(value, gradient, hess_diag, hess_off)``, three lists of floats with
    the symmetric tridiagonal Hessian as its diagonal and first off-diagonal.
    ``values`` are the m free positions, a sequence of floats, and must
    already be feasible (``feasible_values``): this kernel does not check
    them.  Each interval takes ``log_heat_step_diff`` once and shares it
    between all three pieces.  Where a coefficient rounds the quotients xi/a
    of two distinct boundaries together, the arc is empty and the value
    +inf, outside the domain, so a line search backtracks from it; the
    derivatives are only defined where the value is finite.
    """
    full = _full_positions(problem, values)
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    slots = problem.slots
    total = 0.0
    if derivatives:
        m = problem.m
        g = [0.0] * m
        hd = [0.0] * m
        ho = [0.0] * max(m - 1, 0)
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            x = full[k + 1] / a
            y = full[k] / a
            if not x > y:  # the quotients rounded together: outside the domain
                return (_INF, g, hd, ho) if derivatives else _INF
            logdf = log_heat_step_diff(x, y)
            total -= a * a * du * logdf
            if not derivatives:
                continue
            # In the scaled ends, with R = H'/dH and the curvatures c of
            # -ln dH from ``heat_step_ratios``, the term of interval k adds
            # +a du R(y) and -a du R(x) to the gradient, du c_y and du c_x to
            # the diagonal and -du R(x) R(y) to the off-diagonal (the a^2
            # prefactor cancels the chain rule in the second order)
            rx, ry, cx, cy = heat_step_ratios(x, y, logdf)
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
            # du s^2/4 at the one finite boundary s the interval keeps
            b = _anchor(k, n)
            s = full[b]
            total += 0.25 * du * s * s
            if derivatives:
                g[slots[b - 1]] += 0.5 * du * s
                hd[slots[b - 1]] += 0.5 * du
    if not derivatives:
        return total
    return total, g, hd, ho


def entropy_value(problem: RiemannProblem, values: Sequence[float]) -> float:
    """The objective at the m free positions ``values``, checked for feasibility."""
    if len(values) != problem.m:
        raise ValueError(f"expected {problem.m} free boundaries, got {len(values)}")
    if problem.m == 0:
        raise ValueError("problem has no free boundaries (n = 0)")
    if not feasible_values(values):
        raise InfeasibleBoundariesError(f"boundaries must be strictly increasing and finite, got {values!r}")
    return entropy_pass(problem, values, derivatives=False)


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


@dataclass(frozen=True)
class SublevelBox:
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
    delta = math.exp(-c / m_const) if c > 0.0 else 1.0
    # every positive term is at most c, so each log argument is at least
    # delta and each quadratic boundary obeys du s^2/4 <= c
    delta_eff = min(max(delta, 1e-320), 0.5)
    du0 = u[1] - u[0]
    dun = u[n + 1] - u[n]
    cpos = max(c, 0.0)
    if cs[0] > 0.0:
        r_left = -cs[0] * heat_step_inverse(delta_eff)
    else:
        r_left = 2.0 * math.sqrt(cpos / du0)
    if cs[-1] > 0.0:
        r_right = -cs[-1] * heat_step_inverse(delta_eff)
    else:
        r_right = 2.0 * math.sqrt(cpos / dun)
    inner_pos = [cs[k] for k in range(1, n) if cs[k] > 0.0]
    gap = delta * min(inner_pos) if inner_pos else 0.0
    return SublevelBox(radius=max(r_left, r_right), gap=gap)
