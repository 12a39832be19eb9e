"""Damped Newton solver: descent, uniqueness, covariance, and the
tridiagonal linear algebra under it."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import PhasePartition, solve_riemann
from selfsim.entropy import entropy_pass, entropy_value, feasible_values
from selfsim import optimizer
from selfsim.optimizer import (
    TridiagonalFactorizationError,
    damped_newton,
    initial_guess,
    minimize,
    solve_spd_tridiagonal,
)
from selfsim.oracle import stefan_bisection
from selfsim.problem import InvalidPartitionError, normalize_orientation

from conftest import dense_hessian, feasible_point, make_problem, part

TWO_PHASE = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
# frozen regression value from this solver, cross-checked against the
# brute-force grid oracle (agreement to ~7e-6) and finite differences
TWO_PHASE_XI = -0.8694313298425024


def problem_of(part):
    return normalize_orientation(part.breakpoints[0], part.breakpoints[-1], part)


def test_initial_guess_centered_two_phase():
    prob = problem_of(TWO_PHASE)
    assert initial_guess(prob) == (0.0,)


def test_initial_guess_always_feasible(rng):
    for _ in range(1000):
        phases = int(rng.integers(2, 10))
        prob = make_problem(rng, phases)
        guess = initial_guess(prob)
        assert feasible_values(guess)
        assert len(guess) == prob.m


def test_initial_guess_keeps_a_minimum_gap():
    # both boundaries start at the same quantile, 0.5: the second is moved
    # 1e-6 a_max past the first, and the solve converges from there
    partition = PhasePartition((0.0, 0.5, 0.5 + 1e-7, 1.0), (1.0, 2.0, 0.5))
    assert initial_guess(problem_of(partition)) == (0.0, 2e-06)
    sol = solve_riemann(0.0, 1.0, partition)
    assert sol.converged
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-12


def test_initial_guess_needs_a_free_boundary():
    with pytest.raises(ValueError, match=r"no free boundaries \(n = 0\)"):
        initial_guess(problem_of(PhasePartition((0.0, 1.0), (1.0,))))


def test_two_phase_minimizer_regression():
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    assert res.converged
    assert res.x[0] == pytest.approx(TWO_PHASE_XI, abs=1e-12)
    assert res.grad_norm <= 1e-12
    assert res.iterations >= 1


def test_trace_descends():
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    vals = [r.value for r in res.records]
    noise = 4.0 * np.finfo(float).eps * (1.0 + abs(vals[-1]))
    for a, b in zip(vals, vals[1:]):
        assert b <= a + noise
    # strict decrease while the gradient is still meaningfully nonzero
    for rec, nxt in zip(res.records, res.records[1:]):
        if rec.grad_norm > 1e-8:
            assert nxt.value < rec.value


def test_fast_tail_convergence():
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    gnorms = [r.grad_norm for r in res.records]
    assert any(
        prev > 1e-9 and nxt <= prev / 1e3 for prev, nxt in zip(gnorms, gnorms[1:])
    )


def test_reflection_pair():
    prob = problem_of(TWO_PHASE)
    xi = minimize(prob).x
    mirrored = PhasePartition((0.0, 1.0, 2.0), (2.0, 1.0))
    prob_m = problem_of(mirrored)
    xi_m = minimize(prob_m).x
    assert xi_m[0] == pytest.approx(-xi[0], abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_scale_covariance(lam):
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    prob = problem_of(part)
    base = np.array(minimize(prob).x)
    scaled_part = PhasePartition(part.breakpoints, tuple(lam * a for a in part.coefficients))
    prob_s = problem_of(scaled_part)
    scaled = np.array(minimize(prob_s).x)
    assert np.max(np.abs(scaled - lam * base)) <= 1e-8 * max(1.0, lam)


@pytest.mark.parametrize(
    "part",
    [
        PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)),
        PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0)),
        PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0)),
        PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),
    ],
)
def test_restarts_agree(part, rng):
    prob = problem_of(part)
    reference = np.array(minimize(prob).x)
    for _ in range(10):
        start = feasible_point(rng, prob)
        res = minimize(prob, start=start)
        assert res.converged
        assert np.max(np.abs(res.x - reference)) <= 1e-9


def test_degenerate_edge_matches_scalar_bisection():
    part = PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0))
    prob = problem_of(part)
    newton = minimize(prob).x[0]
    assert newton == pytest.approx(stefan_bisection(prob), abs=1e-10)


def test_non_convergence_reported(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    assert not res.converged
    assert res.stop_reason == "max_iters"
    assert res.iterations == 1
    assert len(res.records) == 2


def correction(problem, x) -> float:
    """|H^-1 g|_inf at ``x``: the next Newton correction."""
    _, grad, hd, ho = entropy_pass(problem, list(x))
    return max(map(abs, solve_spd_tridiagonal(hd, ho, grad)))


def stop_bound(problem, x) -> float:
    a_max = max(problem.partition.coefficients)
    return optimizer.STEP_ULPS * sys.float_info.epsilon * max(a_max, max(map(abs, x)))


def test_stop_reason_step(monkeypatch):
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    assert res.converged
    assert res.stop_reason == "step"
    assert correction(prob, res.x) <= stop_bound(prob, res.x)
    # a looser stop ends the same solve earlier, as soon as its correction
    # is within the looser bound
    monkeypatch.setattr(optimizer, "STEP_ULPS", 1e10)
    loose = minimize(prob)
    assert loose.converged and loose.stop_reason == "step"
    assert loose.iterations < res.iterations
    assert correction(prob, loose.x) <= stop_bound(prob, loose.x)
    # no free boundaries: nothing to correct
    single = solve_riemann(0.0, 1.0, PhasePartition((0.0, 1.0), (1.0,)))
    assert single.converged and single.stop_reason == "step"


def test_converged_solves_stop_within_the_bound():
    # the benchmark's small pool (seed 1) and the part set of ROADMAP.md item 2
    seeds = np.random.default_rng(1).integers(0, 2**31, size=(32, 8))
    small = [part(n, int(seeds[j, n - 1]), 0.5, 2.0) for j in range(32) for n in range(1, 9)]
    for prob in [*small, *(part(n, s) for n in (4, 8, 16, 64, 256, 1024) for s in range(6))]:
        res = minimize(prob)
        assert res.converged, (prob.partition, res.stop_reason)
        assert correction(prob, res.x) <= stop_bound(prob, res.x), prob.partition


SCALED_BREAKPOINTS = (0.0, 0.3, 0.7, 1.0)
SCALED_COEFFICIENTS = (1.0, 0.5, 2.0)


@pytest.mark.parametrize("state_scale", [1e-15, 1e-12, 1e-9, 1e-6, 1e3, 1e9])
@pytest.mark.parametrize("coefficient_scale", [1e-9, 1e-6, 1e-3, 1e3, 1e6])
def test_stop_tests_are_scale_free(state_scale, coefficient_scale):
    # the objective scales by state_scale * coefficient_scale^2 and its
    # minimiser by coefficient_scale; the Newton correction and the stop's
    # unit, eps * max(a_max, max |x|), scale with the coefficients and ignore
    # the state scale, so every scaled solve must end where the unit one
    # ends; absolute floors stopped 1e-12 states after 0 iterations
    unit = solve_riemann(0.0, 1.0, PhasePartition(SCALED_BREAKPOINTS, SCALED_COEFFICIENTS))
    bps = tuple(state_scale * u for u in SCALED_BREAKPOINTS)
    cs = tuple(coefficient_scale * a for a in SCALED_COEFFICIENTS)
    sol = solve_riemann(bps[0], bps[-1], PhasePartition(bps, cs))
    assert sol.converged, sol.stop_reason
    expected = coefficient_scale * np.array(unit.boundaries)
    assert np.max(np.abs(np.array(sol.boundaries) - expected)) <= 1e-9 * np.max(np.abs(expected))
    scale = max(cs) * (bps[-1] - bps[0])
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * scale


def test_stop_on_the_correction_where_rounding_holds_the_gradient():
    # rounding holds |g| of this 16-phase problem (two dead phases, 37 steps)
    # at 7.9e-11, 66 times 1e-12 of its start, while full
    # floor steps still shrink the correction until it is within the bound
    partition = PhasePartition(
        (0.0, 0.011132742866439616, 0.019158789596858017, 0.03833547813697591,
         0.29795081902947007, 0.2982818136633061, 0.37544892137592456,
         0.5569106091770423, 0.5858938309849588, 0.6854954315389565,
         0.7888943274077123, 0.8551511209094842, 0.8711334604008812,
         0.8963484290134379, 0.9172406217585797, 0.9309121369964842, 1.0),
        (0.0, 0.06798823352499665, 1.37503330845667, 0.1538055980772992,
         0.05316046906134794, 0.0, 4.343617863280667, 0.425686814335397,
         4.342433118554338, 0.058139506324394935, 1.818674809426066, 0.0,
         0.4496758866134265, 0.0734157205131519, 0.14008153155707762,
         0.1289494128066339),
    )
    sol = solve_riemann(1.0, 0.0, partition)
    assert sol.converged
    assert sol.stop_reason == "step"
    assert sol.grad_norm > 1e-12 * max(1.0, sol.trace[0].grad_norm)
    assert [rec.step_length for rec in sol.trace[-2:]] == [1.0, 1.0]
    problem = normalize_orientation(1.0, 0.0, partition)
    x = minimize(problem).x
    assert correction(problem, x) <= stop_bound(problem, x)
    scale = max(partition.coefficients)
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * scale


def test_floor_step_before_the_quadratic_phase_ends():
    # the decrement of this problem reaches its rounding floor at |g| ~ 5e-5
    # while full Newton steps still square |g|; stopping after that one step
    # left |g| at 4.4e-8 and the flux residual above 1e-9 * a_max * |u+ - u-|
    partition = PhasePartition(
        (0.0, 0.16486108382772713, 0.16501772640978274, 0.7222409130730245, 1.0),
        (0.2512174261134367, 0.06037828050611302, 0.1320171724087787, 1.2577763012313046),
    )
    sol = solve_riemann(1.0, 0.0, partition)
    assert sol.converged
    scale = max(partition.coefficients)
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * scale


def _finite(x):
    return bool(np.all(np.isfinite(x)))


def test_zero_pivot_takes_the_ridge_direction():
    # f = x0^4/4 - x0 + x1^2/2 has a zero curvature in x0 at the start, so
    # the first direction solves with a ridge-shifted diagonal
    def objective(x):
        value = 0.25 * x[0] ** 4 - x[0] + 0.5 * x[1] ** 2
        grad = np.array([x[0] ** 3 - 1.0, x[1]])
        return value, grad, np.array([3.0 * x[0] ** 2, 1.0]), np.zeros(1)

    start = np.array([0.0, 1.0])
    _, grad, hd, ho = objective(start)
    with pytest.raises(TridiagonalFactorizationError):
        solve_spd_tridiagonal(hd, ho, grad)
    out = damped_newton(start, objective, _finite, 1.0)
    assert out.converged and out.stop_reason == "step"
    assert all(rec.value <= out.records[0].value for rec in out.records)
    assert np.allclose(out.x, [1.0, 0.0], atol=1e-12)


def test_negative_pivot_takes_steepest_descent():
    # f = x0^4/4 - x0^2/2 + x1^2/2 is concave in x0 near 0, so no ridge makes
    # the pivot positive and the first steps go down the gradient
    def objective(x):
        value = 0.25 * x[0] ** 4 - 0.5 * x[0] ** 2 + 0.5 * x[1] ** 2
        grad = np.array([x[0] ** 3 - x[0], x[1]])
        return value, grad, np.array([3.0 * x[0] ** 2 - 1.0, 1.0]), np.zeros(1)

    start = np.array([0.1, 1.0])
    out = damped_newton(start, objective, _finite, 1.0)
    assert out.converged and out.stop_reason == "step"
    assert all(rec.value <= out.records[0].value for rec in out.records)
    assert np.allclose(out.x, [1.0, 0.0], atol=1e-12)


def test_stop_reason_no_progress():
    # the solver's objective is convex, so its line search cannot fail above
    # the rounding floor; a constant value under a nonzero gradient makes it
    # fail.  At value 0 the Armijo bound is negative at every step length
    def objective(x):
        x = np.asarray(x)
        return 0.0, 2.0 * x, np.full(x.size, 2.0), np.zeros(x.size - 1)

    out = damped_newton(np.array([1.0, 2.0]), objective, feasible_values, 1.0)
    assert not out.converged
    assert out.stop_reason == "no_progress"
    assert out.iterations == 0
    assert np.array_equal(out.x, [1.0, 2.0])


def test_stalled_correction_at_the_floor_ends_on_max_iters():
    # a value far above its gradient puts every step at the rounding floor,
    # where full steps are taken without Armijo; a correction that never
    # shrinks there runs the solve to MAX_ITERS such steps
    def objective(x):
        return 1e30, [1.0], [1.0], []

    out = damped_newton([0.0], objective, _finite, 1.0)
    assert not out.converged
    assert out.stop_reason == "max_iters"
    assert out.iterations == optimizer.MAX_ITERS
    assert out.x == (-float(optimizer.MAX_ITERS),)


def test_floor_step_backtracks_to_keep_the_value_finite():
    # every step is at the rounding floor, and the value is +inf below
    # x = -0.75: the full step to -1 leaves the domain and the half step to
    # -0.5 does not, so the floor step is shortened to stay finite, not to
    # decrease the value
    def objective(x):
        return (1e30 if x[0] >= -0.75 else math.inf), [1.0], [1.0], []

    out = damped_newton([0.0], objective, _finite, 1.0)
    assert out.records[1].step_length == 0.5
    assert all(math.isfinite(rec.value) for rec in out.records)
    assert not out.converged and out.x[0] >= -0.75
    # at x = -0.75 every step that moves the iterate leaves the domain, and
    # the first step that does not rounds away: the solve ends there
    assert out.stop_reason == "no_progress" and out.iterations == 2


@pytest.mark.parametrize("n, seed", [(64, 0), (64, 1), (256, 7)])
def test_converges_at_the_rounding_floor(n, seed):
    # rounding keeps |g| of these near 1e-11..1e-13, above 1e-12 of its
    # start, so only a stop on the correction, not on |g|, can certify them
    prob = part(n, seed)
    res = minimize(prob)
    assert res.converged, (res.stop_reason, res.grad_norm)
    g = entropy_pass(prob, res.x)[1]
    assert np.max(np.abs(g)) <= 1e-9


@pytest.mark.parametrize("flip", [False, True], ids=["increasing", "decreasing"])
@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [
        ((0.0, 1e-12, 1.0), (0.0, 1.0)),
        ((0.0, 1.0 - 1e-16, 1.0), (1.0, 2.0)),
        ((0.0, 1e-300, 1.0), (1.0, 2.0)),
        ((-1.0, 0.9999999999999999, 1.0), (1.0, 2.0)),
        ((-1.0, 0.9999999999999999, 1.0), (0.0, 2.0)),
        ((-1.0, 0.9999999999999999, 1.0), (2.0, 0.0)),
    ],
)
def test_extreme_state_fraction_converges(breakpoints, coefficients, flip):
    # one phase holds all but 1e-12 (1e-16) of the state range, so ln D of the
    # straddling arc lies that close to 0: ln of the erf sum rounded it to 0.
    # With 1e-300 the objective and its gradient are subnormal and g.d rounds
    # to 0, so the Newton step must be told by the sign of g.d at scale.
    # Half an ulp below the top state the fraction rounds to 1.0, where
    # heat_step_inverse is undefined, so the start holds it just below 1
    partition = PhasePartition(breakpoints, coefficients)
    ends = (breakpoints[-1], breakpoints[0]) if flip else (breakpoints[0], breakpoints[-1])
    sol = solve_riemann(*ends, partition)
    assert sol.converged, (sol.stop_reason, sol.iterations)
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * max(coefficients)


@pytest.mark.xfail(
    strict=True,
    reason="a state fraction that underflows to 0 leaves a start the solve does not recover "
    "from; ROADMAP items 2 (a coefficient-aware start) and 8 (underflowed start fraction)",
)
@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [((0.0, 5e-324, 1e300), (1.0, 2.0)), ((0.0, 1e-320, 1e10), (2.0, 1.0))],
)
def test_underflowed_state_fraction_converges(breakpoints, coefficients):
    # the breakpoint's state fraction underflows to 0 and the start holds it
    # at 5e-324; the first ends on no_progress after one iteration, the
    # second on max_iters after 200
    sol = solve_riemann(breakpoints[0], breakpoints[-1], PhasePartition(breakpoints, coefficients))
    assert sol.converged, (sol.stop_reason, sol.iterations)
    tol = 1e-9 * max(coefficients) * (breakpoints[-1] - breakpoints[0])
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= tol


def test_an_objective_that_overflows_at_the_start_is_refused():
    # each ended on no_progress after 0 iterations, with entropy inf
    for breakpoints, coefficients in [
        ((0.0, 0.5, 1.0), (10**153.9, 2.0 * 10**153.9)),
        ((0.0, 1.0, 1e308), (1.0, 2.0)),
        ((-1e308, 0.0, 1e308), (1.0, 2.0)),  # the span itself overflows
    ]:
        partition = PhasePartition(breakpoints, coefficients)
        with pytest.raises(InvalidPartitionError, match="^the objective is inf at the start"):
            solve_riemann(breakpoints[0], breakpoints[-1], partition)
    # the first problem at coefficients 10^0.4 times smaller still solves
    coefficients = (10**153.5, 2.0 * 10**153.5)
    sol = solve_riemann(0.0, 1.0, PhasePartition((0.0, 0.5, 1.0), coefficients))
    assert sol.converged and math.isfinite(sol.entropy)
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * max(coefficients)


def test_a_start_that_is_infeasible_or_not_finite_is_refused_after_one_pass():
    calls = []

    def objective(x):
        calls.append(x)
        return math.nan, [0.0], [1.0], []

    with pytest.raises(ValueError, match=r"^start point is not feasible: \[1.0, 0.0\]$"):
        damped_newton([1.0, 0.0], objective, feasible_values, 1.0)
    assert calls == []
    with pytest.raises(InvalidPartitionError, match="^the objective is nan at the start"):
        damped_newton([0.0], objective, _finite, 1.0)
    assert calls == [[0.0]]


def test_value_evaluations_bounded_by_iterations():
    # one backtracking loop: every trial point costs one feasibility call,
    # and a feasible one costs one pass, which is the next iterate's when
    # accepted.  Each halving follows a trial that was infeasible or that
    # the Armijo or floor test rejected.  Near the minimum the steps should
    # average at most one backtrack, not a search down to the step floor
    over = []
    for n in range(1, 9):
        for seed in range(32):
            prob = part(n, seed, 0.5, 2.0)
            counts = {"objective": 0, "feasible": 0, "infeasible": 0}

            def objective(x):
                counts["objective"] += 1
                return entropy_pass(prob, x)

            def feasible(x):
                counts["feasible"] += 1
                ok = feasible_values(x)
                counts["infeasible"] += not ok
                return ok

            out = damped_newton(initial_guess(prob), objective, feasible, max(prob.partition.coefficients))
            assert out.converged, (n, seed, out.stop_reason)
            # each accepted step is 2^-k after k halvings
            halvings = sum(-math.log2(rec.step_length) for rec in out.records[1:])
            assert counts["feasible"] == 1 + out.iterations + halvings, (n, seed)
            rejected = halvings - counts["infeasible"]
            assert counts["objective"] == 1 + out.iterations + rejected, (n, seed)
            if counts["objective"] > 2 * out.iterations + 1:
                over.append((n, seed, out.iterations, counts["objective"]))
    assert not over


def test_explicit_start_is_used():
    prob = problem_of(TWO_PHASE)
    start = np.array([-3.0])
    res = minimize(prob, start=start)
    assert res.records[0].value == entropy_value(prob, start)
    assert res.converged


def test_tridiagonal_solver_matches_dense(rng):
    for _ in range(50):
        m = int(rng.integers(1, 12))
        off = rng.uniform(-1.0, 1.0, size=max(m - 1, 0))
        # diagonally dominant => SPD
        diag = np.abs(rng.uniform(0.5, 2.0, size=m))
        if m > 1:
            diag[:-1] += np.abs(off)
            diag[1:] += np.abs(off)
        rhs = rng.uniform(-3.0, 3.0, size=m)
        x = solve_spd_tridiagonal(diag, off, rhs)
        assert np.allclose(dense_hessian(diag, off) @ x, rhs, atol=1e-10)


def _ldlt_on_arrays(diag, off, rhs):
    # the solver's LDL^T as it indexed numpy arrays element by element
    d = np.asarray(diag, dtype=float).copy()
    e = np.asarray(off, dtype=float)
    x = np.asarray(rhs, dtype=float).copy()
    m = d.size
    l = np.empty(max(m - 1, 0))
    if not np.all(np.isfinite(d)) or (m > 1 and not np.all(np.isfinite(e))):
        raise TridiagonalFactorizationError("non-finite matrix entry")
    if d[0] <= 0.0:
        raise TridiagonalFactorizationError("nonpositive pivot at 0")
    for i in range(1, m):
        l[i - 1] = e[i - 1] / d[i - 1]
        d[i] = d[i] - l[i - 1] * e[i - 1]
        if d[i] <= 0.0 or not math.isfinite(d[i]):
            raise TridiagonalFactorizationError(f"nonpositive pivot at {i}")
    for i in range(1, m):  # forward: L z = rhs
        x[i] -= l[i - 1] * x[i - 1]
    x /= d  # D y = z
    for i in range(m - 2, -1, -1):  # back: L^T x = y
        x[i] -= l[i] * x[i + 1]
    return x


@st.composite
def _tridiagonal_systems(draw):
    m = draw(st.integers(1, 40))
    entry = st.floats(-1e3, 1e3)
    off = np.array(draw(st.lists(entry, min_size=m - 1, max_size=m - 1)))
    diag = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    if draw(st.booleans()):  # diagonally dominant, hence SPD
        diag = np.abs(diag) + 1e-3
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
    rhs = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    return diag.tolist(), off.tolist(), rhs.tolist()


@given(_tridiagonal_systems())
@settings(max_examples=300, deadline=None)
def test_tridiagonal_solver_is_bit_identical_to_the_array_loop(system):
    try:
        with np.errstate(all="ignore"):  # numpy scalars warn where Python floats do not
            expected = _ldlt_on_arrays(*system)
    except TridiagonalFactorizationError as err:
        with pytest.raises(TridiagonalFactorizationError, match=f"^{err}$"):
            solve_spd_tridiagonal(*system)
        return
    got = solve_spd_tridiagonal(*system)
    assert type(got) is list and np.array(got).tobytes() == expected.tobytes()


def test_tridiagonal_solver_rejects_indefinite():
    with pytest.raises(TridiagonalFactorizationError):
        solve_spd_tridiagonal(np.array([1.0, -2.0]), np.array([0.0]), np.array([1.0, 1.0]))
    with pytest.raises(TridiagonalFactorizationError):
        # pivot goes nonpositive: [[1, 2], [2, 1]] has eigenvalues 3, -1
        solve_spd_tridiagonal(np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, 1.0]))


def test_minimize_random_problems_converge(rng):
    for _ in range(40):
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        res = minimize(prob)
        assert res.converged, (prob.partition, res.grad_norm)
        g = entropy_pass(prob, res.x)[1]
        assert np.max(np.abs(g)) <= 1e-9
