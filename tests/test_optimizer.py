"""Damped Newton solver: descent, uniqueness, covariance, and the
tridiagonal linear algebra under it."""

from __future__ import annotations

import math

import numpy as np
import pytest

import selfsim as ss
from selfsim.entropy import entropy_pass
from selfsim.optimizer import (
    SolveOptions,
    TridiagonalFactorizationError,
    damped_newton,
    solve_spd_tridiagonal,
)

from conftest import dense_hessian, feasible_point, make_problem, part

TWO_PHASE = ss.PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
# frozen regression value from this solver, cross-checked against the
# brute-force grid oracle (agreement to ~7e-6) and finite differences
TWO_PHASE_XI = -0.8694313298425024


def problem_of(part):
    prob = ss.normalize_orientation(part.breakpoints[0], part.breakpoints[-1], part)
    return prob, ss.build_layout(part)


def test_initial_guess_centered_two_phase():
    prob, lay = problem_of(TWO_PHASE)
    assert ss.initial_guess(prob, lay).values == (0.0,)


def test_initial_guess_always_feasible(rng):
    for _ in range(1000):
        phases = int(rng.integers(2, 10))
        prob, lay = make_problem(rng, phases)
        guess = ss.initial_guess(prob, lay)
        assert ss.feasible_values(guess.values)
        assert len(guess.values) == lay.m


def test_two_phase_minimizer_regression():
    prob, lay = problem_of(TWO_PHASE)
    res = ss.minimize(prob, lay)
    assert res.converged
    assert res.minimizer.values[0] == pytest.approx(TWO_PHASE_XI, abs=1e-12)
    assert res.grad_norm <= 1e-12
    assert res.iterations >= 1


def test_trace_descends():
    prob, lay = problem_of(TWO_PHASE)
    res = ss.minimize(prob, lay)
    vals = [r.value for r in res.trace]
    noise = 4.0 * np.finfo(float).eps * (1.0 + abs(vals[-1]))
    for a, b in zip(vals, vals[1:]):
        assert b <= a + noise
    # strict decrease while the gradient is still meaningfully nonzero
    for rec, nxt in zip(res.trace, res.trace[1:]):
        if rec.grad_norm > 1e-8:
            assert nxt.value < rec.value


def test_fast_tail_convergence():
    prob, lay = problem_of(TWO_PHASE)
    res = ss.minimize(prob, lay)
    gnorms = [r.grad_norm for r in res.trace]
    assert any(
        prev > 1e-9 and nxt <= prev / 1e3 for prev, nxt in zip(gnorms, gnorms[1:])
    )


def test_reflection_pair():
    prob, lay = problem_of(TWO_PHASE)
    xi = ss.minimize(prob, lay).minimizer.values
    mirrored = ss.PhasePartition((0.0, 1.0, 2.0), (2.0, 1.0))
    prob_m, lay_m = problem_of(mirrored)
    xi_m = ss.minimize(prob_m, lay_m).minimizer.values
    assert xi_m[0] == pytest.approx(-xi[0], abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_scale_covariance(lam):
    part = ss.PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    prob, lay = problem_of(part)
    base = np.asarray(ss.minimize(prob, lay).minimizer.values)
    scaled_part = ss.PhasePartition(part.breakpoints, tuple(lam * a for a in part.coefficients))
    prob_s, lay_s = problem_of(scaled_part)
    scaled = np.asarray(ss.minimize(prob_s, lay_s).minimizer.values)
    assert np.max(np.abs(scaled - lam * base)) <= 1e-8 * max(1.0, lam)


@pytest.mark.parametrize(
    "part",
    [
        ss.PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)),
        ss.PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0)),
        ss.PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0)),
        ss.PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),
    ],
)
def test_restarts_agree(part, rng):
    prob, lay = problem_of(part)
    reference = np.asarray(ss.minimize(prob, lay).minimizer.values)
    for _ in range(10):
        start = feasible_point(rng, lay)
        res = ss.minimize(prob, lay, start=start)
        assert res.converged
        assert np.max(np.abs(np.asarray(res.minimizer.values) - reference)) <= 1e-9


def test_degenerate_edge_matches_scalar_bisection():
    part = ss.PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0))
    prob, lay = problem_of(part)
    newton = ss.minimize(prob, lay).minimizer.values[0]
    from selfsim.oracle import stefan_bisection

    assert newton == pytest.approx(stefan_bisection(prob), abs=1e-10)


def test_non_convergence_reported():
    prob, lay = problem_of(TWO_PHASE)
    res = ss.minimize(prob, lay, options=SolveOptions(max_iters=1))
    assert not res.converged
    assert res.stop_reason == "max_iters"
    assert res.iterations == 1
    assert len(res.trace) == 2


def test_stop_reason_gradient():
    prob, lay = problem_of(TWO_PHASE)
    res = ss.minimize(prob, lay, options=SolveOptions(grad_tol=1e-3))
    assert res.converged
    assert res.stop_reason == "gradient"
    assert res.grad_norm <= 1e-3 * max(1.0, res.trace[0].grad_norm)
    # no free boundaries: the empty gradient meets the test at once
    single = ss.solve_riemann(0.0, 1.0, ss.PhasePartition((0.0, 1.0), (1.0,)))
    assert single.converged and single.stop_reason == "gradient"


def test_stop_reason_decrement():
    partition = ss.PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    sol = ss.solve_riemann(0.0, 3.0, partition)
    assert sol.converged
    assert sol.stop_reason == "decrement"
    assert sol.grad_norm <= 1e-12


def test_stop_reason_no_progress():
    # the solver's objective is convex, so its line search cannot fail above
    # the rounding floor; a value function that never decreases makes it fail
    def full_fn(x):
        return float(x @ x), 2.0 * x, np.full(x.size, 2.0), np.zeros(x.size - 1)

    out = damped_newton(
        np.array([1.0, 2.0]), lambda x: 10.0, full_fn, ss.feasible_values, SolveOptions()
    )
    assert not out.converged
    assert out.stop_reason == "no_progress"
    assert out.iterations == 0
    assert np.array_equal(out.x, [1.0, 2.0])


@pytest.mark.parametrize("n, seed", [(64, 0), (64, 1), (256, 7)])
def test_converges_at_the_rounding_floor(n, seed):
    # rounding keeps |g| of these near 1e-11..1e-13, above the default
    # gradient threshold, so only the decrement stop can certify them
    prob, lay = part(n, seed)
    res = ss.minimize(prob, lay)
    assert res.converged, (res.stop_reason, res.grad_norm)
    g = ss.entropy_gradient(prob, lay, res.minimizer)
    assert np.max(np.abs(g)) <= 1e-9


def test_value_evaluations_bounded_by_iterations():
    # near the minimum every iteration should cost one full evaluation and at
    # most a couple of line-search values, not a backtrack to the step floor
    over = []
    for n in range(1, 9):
        for seed in range(32):
            prob, lay = part(n, seed, 0.5, 2.0)
            counts = {"value": 0, "full": 0}

            def value_fn(x):
                counts["value"] += 1
                return entropy_pass(prob, lay, x, derivatives=False)

            def full_fn(x):
                counts["full"] += 1
                return entropy_pass(prob, lay, x)

            start = ss.initial_guess(prob, lay).as_array()
            out = damped_newton(start, value_fn, full_fn, ss.feasible_values, SolveOptions())
            assert out.converged, (n, seed, out.stop_reason)
            assert counts["full"] == out.iterations + 1
            if counts["value"] > 2 * out.iterations + 1:
                over.append((n, seed, out.iterations, counts["value"]))
    assert not over


def test_options_validated():
    for grad_tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=grad_tol)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


def test_explicit_start_is_used():
    prob, lay = problem_of(TWO_PHASE)
    start = ss.FreeBoundaries((-3.0,), lay)
    res = ss.minimize(prob, lay, start=start)
    assert res.trace[0].value == ss.entropy_value(prob, lay, start)
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


def test_tridiagonal_solver_rejects_indefinite():
    with pytest.raises(TridiagonalFactorizationError):
        solve_spd_tridiagonal(np.array([1.0, -2.0]), np.array([0.0]), np.array([1.0, 1.0]))
    with pytest.raises(TridiagonalFactorizationError):
        # pivot goes nonpositive: [[1, 2], [2, 1]] has eigenvalues 3, -1
        solve_spd_tridiagonal(np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, 1.0]))


def test_minimize_random_problems_converge(rng):
    for _ in range(40):
        phases = int(rng.integers(2, 8))
        prob, lay = make_problem(rng, phases)
        res = ss.minimize(prob, lay)
        assert res.converged, (prob.partition, res.grad_norm)
        g = ss.entropy_gradient(prob, lay, res.minimizer)
        assert np.max(np.abs(g)) <= 1e-9
