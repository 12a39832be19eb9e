"""Damped Newton minimization of the boundary objective.

The Hessian is symmetric tridiagonal and positive definite on the feasible
set, so each Newton direction costs one LDL^T sweep.  Steps are backtracked
first to stay strictly feasible (boundaries strictly increasing; the set is
convex, so one feasible trial point makes every shorter step feasible) and
then to satisfy an Armijo decrease, which makes the iteration globally
convergent from any feasible start.  The iterate, gradient, Hessian and
direction are lists of Python floats: on a few unknowns numpy's per-call
dispatch costs more than the arithmetic, and the operations (hence the
bits) are the same.

Three tests end the iteration as converged or not:

* gradient: |g|_inf <= grad_tol * |g at start|_inf;
* decrement: the Newton decrement lambda^2 = g^T H^-1 g (Boyd & Vandenberghe,
  Convex Optimization 9.5.1) predicts a decrease lambda^2/2 of the objective
  no larger than its rounding floor, DECREMENT_ULPS * eps * |E|.  Armijo
  cannot certify such a step, but the Newton step is then exact to rounding,
  so the full step is taken, backtracked only to stay feasible and to keep
  the value finite.  Where the Hessian is large, lambda^2 reaches the floor
  while |g| still falls by orders per step, so the solve stops on the
  decrement only after two such floor steps in a row; the gradient test
  above is checked first after every step;
* no progress: the Armijo search fails above that floor (not converged).

Otherwise the solve stops at ``max_iters`` (not converged).  Both converged
tests are relative, to the start gradient and to |E|, so they hold at every
scale of the data: scaling the states by s scales E and g by s, and scaling
the coefficients by c scales E by c^2 and the minimiser by c.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

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
    # than the arithmetic, and the operations (hence the bits) are the same
    if not all(map(math.isfinite, diag)) or not all(map(math.isfinite, off)):
        raise TridiagonalFactorizationError("non-finite matrix entry")
    if diag[0] <= 0.0:
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


@dataclass(frozen=True)
class SolveOptions:
    # stop once |grad|_inf <= grad_tol * |grad at start|_inf; the
    # Newton-decrement stop (module docstring) ends solves whose rounding
    # floor lies above that threshold
    grad_tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    value: float
    grad_norm: float
    step_length: float


@dataclass(frozen=True)
class NewtonOutcome:
    x: tuple[float, ...]  # the m free positions at the stop
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str  # one of gradient, decrement, no_progress, max_iters
    records: tuple[IterationRecord, ...]


# The decrement stop fires once lambda^2/2 <= DECREMENT_ULPS * eps * |E|: a
# thousand units of rounding of the objective, which sums positive terms, so
# |E| is its own rounding scale.
DECREMENT_ULPS = 1e3
# Armijo sufficient-decrease constant and the step shrink per backtrack
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
_EPS = sys.float_info.epsilon
_MIN_STEP = 1e-18
# A live interior phase whose scaled width x - y is at most this many units
# of rounding of its ends is not resolved: each end xi / a carries one
# rounding of xi and one of the quotient, so the width is uncertain by about
# two units, and the flux a du / (x - y) through the phase by half or more.
UNRESOLVED_ULPS = 4.0


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
    value_fn: Callable[[list[float]], float],
    full_fn: Callable[[list[float]], tuple[float, list[float], list[float], list[float]]],
    feasible: Callable[[list[float]], bool],
    options: SolveOptions,
) -> NewtonOutcome:
    """Minimize from ``x0``, any sequence of floats; see the module docstring
    for the stop tests.

    The iterate is a list of Python floats: the callbacks take it and return
    the gradient and the Hessian's diagonal and off-diagonal as sequences of
    floats.  ``value_fn`` and ``full_fn`` are only called at points
    ``feasible`` accepts, so they need not check feasibility themselves.
    """
    x = [float(v) for v in x0]
    if not feasible(x):
        raise ValueError(f"start point is not feasible: {x!r}")
    value, grad, hd, ho = full_fn(x)
    gnorm = max(map(abs, grad), default=0.0)
    tol = options.grad_tol * gnorm
    records = [IterationRecord(value, gnorm, 0.0)]
    stop_reason = "gradient" if gnorm <= tol else None
    iterations = 0
    prev_floor = False
    while stop_reason is None:
        if iterations >= options.max_iters:
            stop_reason = "max_iters"
            break
        d, newton = _direction(hd, ho, grad)
        slope = sum(gi * di for gi, di in zip(grad, d))  # -lambda^2 for a Newton direction
        if not slope < 0.0:
            d = [-g for g in grad]
            slope = -sum(g * g for g in grad)
            newton = False
        t = 1.0
        while not feasible([xi + t * di for xi, di in zip(x, d)]):
            t *= BACKTRACK_FACTOR
            if t < _MIN_STEP:
                break
        at_floor = newton and -0.5 * slope <= DECREMENT_ULPS * _EPS * abs(value)
        # above the floor, Armijo on the value; at it, where the value cannot
        # certify a step, the full pass at the step, backtracked only if that
        # left the domain: a step that rounds two scaled ends of a phase
        # together has the value +inf.  Every shorter step stays feasible
        while t >= _MIN_STEP:
            trial = [xi + t * di for xi, di in zip(x, d)]
            if at_floor:
                full = full_fn(trial)
                if full[0] < math.inf:
                    break
            elif value_fn(trial) <= value + ARMIJO_C * t * slope:
                break
            t *= BACKTRACK_FACTOR
        if t < _MIN_STEP:
            stop_reason = "no_progress"
            break
        x = trial
        value, grad, hd, ho = full if at_floor else full_fn(x)
        gnorm = max(map(abs, grad), default=0.0)
        records.append(IterationRecord(value, gnorm, t))
        iterations += 1
        if gnorm <= tol:
            stop_reason = "gradient"
        elif at_floor and prev_floor:
            stop_reason = "decrement"
        prev_floor = at_floor
    return NewtonOutcome(
        x=tuple(x),
        value=value,
        grad_norm=gnorm,
        iterations=iterations,
        converged=stop_reason in ("gradient", "decrement"),
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
        guess = abar * heat_step_inverse(sum(f) / len(f))
        if vals and guess < vals[-1] + min_gap:
            guess = vals[-1] + min_gap
        vals.append(guess)
    return tuple(vals)


def minimize(
    problem: RiemannProblem,
    options: SolveOptions | None = None,
    start: Sequence[float] | None = None,
) -> NewtonOutcome:
    """Damped Newton on the objective from ``start`` (default ``initial_guess``)."""
    x0 = initial_guess(problem) if start is None else start

    def value_fn(x: list[float]) -> float:
        return entropy_pass(problem, x, derivatives=False)

    def full_fn(x: list[float]):
        return entropy_pass(problem, x)

    outcome = damped_newton(x0, value_fn, full_fn, feasible_values, options or SolveOptions())
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
