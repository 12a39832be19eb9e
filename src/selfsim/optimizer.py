"""Damped Newton minimization of the boundary objective.

The Hessian is symmetric tridiagonal and positive definite on the feasible
set, so each Newton direction costs one LDL^T sweep.  One backtracking
loop halves the step until the trial point is strictly feasible
(boundaries strictly increasing) and satisfies an Armijo decrease, which
makes the iteration globally convergent from any feasible start.  The
feasibility test is cheap and comes first; each feasible trial point costs
one pass of the objective, which returns value, gradient and Hessian
together, and the accepted trial's pass is the next iterate's.  The
iterate, gradient, Hessian and direction are lists of Python floats: on a
few unknowns numpy's per-call dispatch costs more than the arithmetic, and
the operations (hence the bits) are the same.

One test ends the iteration as converged: before each step, the exact
Newton correction d = -H^-1 g has |d|_inf <= STEP_ULPS * eps * max(L, max |x|),
L a length the caller passes (a_max for the boundary objective).  This is
the affine-covariant test of Deuflhard (Newton Methods for Nonlinear
Problems, 2004), and it costs no objective pass.  It holds at every scale:
scaling the states scales E, g and H alike and leaves d alone, and scaling
the coefficients by c scales d, the minimiser and a_max by c.  Where the
Newton decrement predicts a decrease lambda^2/2 = g^T H^-1 g / 2 within the
objective's rounding floor, DECREMENT_ULPS * eps * |E| (Boyd & Vandenberghe,
Convex Optimization 9.5.1), Armijo cannot certify a step, so the full step
is taken, backtracked only to stay feasible and keep the value finite.  The
solve ends not converged on no_progress, when the line search finds no
acceptable step or a floor step rounds away to the iterate itself, and on
max_iters after MAX_ITERS steps, which is also where floor steps that
never bring the correction down to the stop end.
The objective is strictly convex with one minimiser, so these are module
constants, not options.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .entropy import entropy_pass, feasible_values
from .problem import InvalidPartitionError, RiemannProblem
from .special import heat_step_inverse


class TridiagonalFactorizationError(RuntimeError):
    """Raised when a pivot of the LDL^T factorization is not positive."""


def solve_spd_tridiagonal(diag, off, rhs) -> list[float]:
    """Solve T x = rhs for symmetric positive definite tridiagonal T.

    ``diag`` holds the main diagonal (length m), ``off`` the first
    off-diagonal (length m-1).  LDL^T without pivoting; raises if a pivot
    fails to be positive, which for our objective can only be a numerical
    accident.
    """
    # on Python floats: indexing numpy arrays one element at a time costs more
    # than the arithmetic, and the operations (hence the bits) are the same.
    # A non-finite entry makes some pivot inf or NaN, which fails its test
    if not 0.0 < diag[0] < math.inf:
        raise TridiagonalFactorizationError("nonpositive pivot at 0")
    d = list(diag)
    x = list(rhs)
    m = len(d)
    l = [0.0] * (m - 1)
    for i in range(1, m):  # factor, and forward: L z = rhs
        li = off[i - 1] / d[i - 1]
        di = d[i] - li * off[i - 1]
        if di <= 0.0 or not math.isfinite(di):
            raise TridiagonalFactorizationError(f"nonpositive pivot at {i}")
        l[i - 1] = li
        d[i] = di
        x[i] -= li * x[i - 1]
    x = [xi / di for xi, di in zip(x, d)]  # D y = z
    for i in range(m - 2, -1, -1):  # back: L^T x = y
        x[i] -= l[i] * x[i + 1]
    return x


class IterationRecord(NamedTuple):
    value: float
    grad_norm: float
    step_length: float


class NewtonOutcome(NamedTuple):
    x: tuple[float, ...]  # the m free positions at the stop
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str  # step (converged), no_progress or max_iters
    records: tuple[IterationRecord, ...]


# Full steps at the floor take the correction to at most 72 units of the stop
# on the solves measured, some after five floor steps that did not halve it
STEP_ULPS = 128.0
MAX_ITERS = 200
# A step is at the rounding floor once lambda^2/2 <= DECREMENT_ULPS * eps * |E|:
# a thousand units of rounding of the objective, which sums positive terms,
# so |E| is its own rounding scale.
DECREMENT_ULPS = 1e3
# Armijo sufficient-decrease constant and the step shrink per backtrack
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
_EPS = sys.float_info.epsilon
_MIN_STEP = 1e-18
# A live interior phase whose scaled width x - y is at most this many units
# of rounding of its ends is not resolved: each end xi carries one rounding,
# so the width is uncertain by about two units, and the flux a du / (x - y)
# through the phase by half or more.
UNRESOLVED_ULPS = 4.0
# The start's state fractions are held inside (0, 1), where heat_step_inverse
# is defined: a breakpoint within half an ulp of the top state, relative to
# the span, rounds its fraction to 1, and one far below the span's scale
# underflows it to 0.
_FRACTION_MIN = 5e-324
_FRACTION_MAX = 1.0 - 2.0**-53


def _direction(hd, ho, grad) -> tuple[list[float], bool]:
    """Search direction, and whether it is the exact Newton direction."""
    try:
        return [-v for v in solve_spd_tridiagonal(hd, ho, grad)], True
    except TridiagonalFactorizationError:
        ridge = max(map(abs, hd)) * 1e-12 + 1e-300
        try:
            return [-v for v in solve_spd_tridiagonal([h + ridge for h in hd], ho, grad)], False
        except TridiagonalFactorizationError:
            return [-g for g in grad], False


def damped_newton(
    x0: Sequence[float],
    objective: Callable[[list[float]], tuple[float, list[float], list[float], list[float]]],
    feasible: Callable[[list[float]], bool],
    length: float,
) -> NewtonOutcome:
    """Minimize from ``x0``, any sequence of floats; see the module docstring
    for the stop rule, whose unit is eps * max(``length``, max |x|).

    The iterate is a list of Python floats.  ``objective`` takes it and
    returns the value, the gradient and the Hessian's diagonal and
    off-diagonal, the last three as sequences of floats.  It is called once
    per trial point that ``feasible`` accepts, and at no other, so it need
    not check feasibility itself; the accepted trial's evaluation is the next
    iterate's.  An infeasible start is a ``ValueError``, and a start whose
    value is not finite an ``InvalidPartitionError``: no step can be
    measured against it.
    """
    x = [float(v) for v in x0]
    if not feasible(x):
        raise ValueError(f"start point is not feasible: {x!r}")
    value, grad, hd, ho = objective(x)
    if not math.isfinite(value):
        raise InvalidPartitionError(
            f"the objective is {value!r} at the start: the states or coefficients are too large "
            "for double precision"
        )
    gnorm = max(map(abs, grad), default=0.0)
    records = [IterationRecord(value, gnorm, 0.0)]
    while True:
        d, newton = _direction(hd, ho, grad)
        correction = max(map(abs, d))
        if newton and correction <= STEP_ULPS * _EPS * max(length, max(map(abs, x))):
            stop_reason = "step"
            break
        if len(records) > MAX_ITERS:
            stop_reason = "max_iters"
            break
        slope = sum(gi * di for gi, di in zip(grad, d))  # -lambda^2 for a Newton direction
        at_floor = newton and -0.5 * slope <= DECREMENT_ULPS * _EPS * abs(value)
        # a feasible trial is evaluated and tested: above the floor by Armijo
        # on the value; at it, where the value cannot certify a step, only
        # for staying in the domain: a step that leaves a live phase a width
        # over a that underflows to 0 has the value +inf
        t = 1.0
        while t >= _MIN_STEP:
            trial = [xi + t * di for xi, di in zip(x, d)]
            if at_floor and trial == x:
                # t * d rounds away, and so does every shorter step
                t = 0.0
                break
            if feasible(trial):
                evaluation = objective(trial)
                if at_floor:
                    if evaluation[0] < math.inf:
                        break
                elif evaluation[0] <= value + ARMIJO_C * t * slope:
                    break
            t *= BACKTRACK_FACTOR
        if t < _MIN_STEP:
            stop_reason = "no_progress"
            break
        x = trial
        value, grad, hd, ho = evaluation
        gnorm = max(map(abs, grad), default=0.0)
        records.append(IterationRecord(value, gnorm, t))
    return NewtonOutcome(
        x=tuple(x),
        value=value,
        grad_norm=gnorm,
        iterations=len(records) - 1,
        converged=stop_reason == "step",
        stop_reason=stop_reason,
        records=tuple(records),
    )


def initial_guess(problem: RiemannProblem) -> tuple[float, ...]:
    """Quantile start: slot j sits where the widest phase's profile would put
    the cumulative state fraction reached at that boundary."""
    if problem.m < 1:
        raise ValueError("problem has no free boundaries (n = 0)")
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    span = u[-1] - u[0]
    abar = max(a for a in cs if a > 0.0)
    fracs: dict[int, list[float]] = {}
    for k in range(1, problem.n + 1):
        fracs.setdefault(problem.slots[k - 1], []).append((u[k] - u[0]) / span)
    vals: list[float] = []
    min_gap = 1e-6 * abar
    for j in range(problem.m):
        f = fracs[j]
        guess = abar * heat_step_inverse(min(max(sum(f) / len(f), _FRACTION_MIN), _FRACTION_MAX))
        if vals and guess < vals[-1] + min_gap:
            guess = vals[-1] + min_gap
        vals.append(guess)
    return tuple(vals)


def minimize(problem: RiemannProblem, start: Sequence[float] | None = None) -> NewtonOutcome:
    """Damped Newton on the objective from ``start`` (default ``initial_guess``)."""
    x0 = initial_guess(problem) if start is None else start
    a_max = max(problem.partition.coefficients)
    outcome = damped_newton(x0, lambda x: entropy_pass(problem, x), feasible_values, a_max)
    _require_resolved(problem, outcome.x)
    return outcome


def _require_resolved(problem: RiemannProblem, x: tuple[float, ...]) -> None:
    """Refuse a solve that left a live interior phase a few ulps wide.

    Such a phase, whose coefficient lies many orders below its neighbours',
    is narrower at the minimiser than double precision can place two
    boundaries apart, so no floats balance its flux.
    """
    edges = problem.expand(x)
    cs = problem.partition.coefficients
    for k in range(1, problem.n):
        a = cs[k]
        if a > 0.0:
            hi, lo = edges[k] / a, edges[k - 1] / a
            width = (hi - lo) / math.ulp(max(abs(hi), abs(lo)))
            if width <= UNRESOLVED_ULPS:
                raise InvalidPartitionError(
                    f"coefficient a_{k} = {a!r} is too small beside its neighbours to solve "
                    f"in double precision: its phase is {width:.3g} ulps of its scaled ends wide"
                )
