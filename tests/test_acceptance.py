"""End-to-end acceptance gate.

Each test covers one published criterion and registers a summary line that
the terminal hook in conftest prints as [PASS]/[FAIL] after the run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from selfsim import PhasePartition, solve_riemann
from selfsim.continuum import (
    DiffusionFunction,
    convergence_study,
    euler_lagrange_residual,
    minimize_variational_cost,
)
from selfsim.entropy import entropy_pass, entropy_value, shift_constant, sublevel_bounds
from selfsim.optimizer import initial_guess, minimize
from selfsim.oracle import compare_profiles, fd_solve, grid_search_min, stefan_bisection
from selfsim.problem import normalize_orientation
from selfsim.profile import build_profile, jump_residuals
from selfsim.special import heat_step, heat_step_inverse

from conftest import dense_hessian, fd_gradient, fd_hessian, feasible_point, make_problem
from entropy_reference import reference_shifted_value

SEED = 20260817


def _problem(breakpoints, coefficients):
    part = PhasePartition(breakpoints=breakpoints, coefficients=coefficients)
    return normalize_orientation(breakpoints[0], breakpoints[-1], part)


def _sample_points(rng, count):
    """Random feasible evaluation points over a stream of random problems
    with up to six boundaries, seeded with degenerate edge and inner cases."""
    fixed = [
        ((0.0, 1.0, 2.0), (0.0, 1.0)),  # left edge degenerate
        ((0.0, 1.0, 2.0), (1.0, 0.0)),  # right edge degenerate
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),  # inner interval degenerate
    ]
    out = []
    for bps, cs in fixed:
        prob = _problem(bps, cs)
        out.append((prob, feasible_point(rng, prob)))
    while len(out) < count:
        problem = make_problem(rng, phases=int(rng.integers(2, 8)))
        out.append((problem, feasible_point(rng, problem)))
    return out


def test_criterion_01_closed_form_recovery(record_property):
    record_property(
        "acceptance",
        "criterion 01: constant-coefficient solve reproduces the scaled kernel "
        "pointwise to 1e-12 at 2001 points",
    )
    for u_minus, u_plus, a in [(0.0, 1.0, 1.0), (-0.5, 2.5, 1.5), (1.0, 4.0, 0.3)]:
        sol = solve_riemann(u_minus, u_plus, PhasePartition((u_minus, u_plus), (a,)))
        xs = np.linspace(-12.0 * a, 12.0 * a, 2001)
        got = sol.profile.sample(xs)
        want = u_minus + (u_plus - u_minus) * np.array([heat_step(x / a) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_criterion_02_gradient_matches_finite_differences(record_property):
    record_property(
        "acceptance",
        "criterion 02: analytic objective gradient matches central differences "
        "to 1e-6 relative at 100 random feasible points",
    )
    rng = np.random.default_rng(SEED)
    for problem, point in _sample_points(rng, 100):
        gradient = entropy_pass(problem, point)[1]
        fd = fd_gradient(lambda vals: entropy_value(problem, vals), point)
        scale = max(1.0, float(np.max(np.abs(gradient))))
        assert np.max(np.abs(fd - gradient)) <= 1e-6 * scale


def test_criterion_03_hessian_positive_definite(record_property):
    record_property(
        "acceptance",
        "criterion 03: objective Hessian is symmetric positive definite and "
        "matches finite differences to 1e-5 at 100 random feasible points",
    )
    rng = np.random.default_rng(SEED + 1)
    for problem, point in _sample_points(rng, 100):
        dense = dense_hessian(*entropy_pass(problem, point)[2:])
        assert np.array_equal(dense, dense.T)
        assert float(np.min(np.linalg.eigvalsh(dense))) > 0.0
        fd = fd_hessian(lambda vals: entropy_value(problem, vals), point)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(fd - dense)) <= 1e-5 * scale


def test_criterion_04_stationarity_equals_jump_conditions(record_property):
    record_property(
        "acceptance",
        "criterion 04: interface balances hold to 1e-9 at the minimizer and "
        "break above 1e-4 under 1e-2 boundary perturbations",
    )
    cases = [
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0)),  # smooth matching system
        ((0.0, 1.0, 2.0), (0.0, 1.0)),  # edge balance, left
        ((0.0, 1.0, 2.0), (1.0, 0.0)),  # edge balance, right
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),  # merged inner balance
    ]
    for bps, cs in cases:
        sol = solve_riemann(bps[0], bps[-1], PhasePartition(bps, cs))
        assert sol.converged
        assert all(abs(rec.rh_residual) <= 1e-9 for rec in sol.jumps)
        values = minimize(sol.problem).x
        for slot in range(sol.problem.m):
            bumped = list(values)
            bumped[slot] += 1e-2
            profile = build_profile(sol.problem, bumped)
            records = jump_residuals(profile)
            hit = [rec for rec in records if rec.slot == slot]
            assert hit and all(abs(rec.rh_residual) > 1e-4 for rec in hit)


def test_criterion_05_oracle_equivalence(record_property):
    record_property(
        "acceptance",
        "criterion 05: Newton minimizer agrees with lattice search (1e-4, m <= 2) "
        "and with interface bisection (1e-9)",
    )
    for bps, cs in [((0.0, 1.0, 2.0), (1.0, 2.0)), ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.0))]:
        prob = _problem(bps, cs)
        lattice = grid_search_min(prob)
        newton = minimize(prob)
        for a, b in zip(lattice.minimizer, newton.x):
            assert abs(a - b) <= 1e-4
    for cs in [(0.0, 1.0), (1.0, 0.0)]:
        prob = _problem((0.0, 1.0, 2.0), cs)
        front = stefan_bisection(prob)
        newton = minimize(prob)
        assert abs(front - newton.x[0]) <= 1e-9


def test_criterion_06_restarts_agree(record_property):
    record_property(
        "acceptance",
        "criterion 06: 10 random feasible restarts reach the same minimizer "
        "within 1e-9",
    )
    rng = np.random.default_rng(SEED + 2)
    for bps, cs in [
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0)),
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),
    ]:
        prob = _problem(bps, cs)
        solutions = []
        for _ in range(10):
            start = feasible_point(rng, prob)
            result = minimize(prob, start=start)
            assert result.converged
            solutions.append(result.x)
        stacked = np.vstack(solutions)
        assert np.max(stacked.max(axis=0) - stacked.min(axis=0)) <= 1e-9


def test_criterion_07_sublevel_box_contains_sublevel_set(record_property):
    record_property(
        "acceptance",
        "criterion 07: no feasible lattice point outside the certified box "
        "reaches the starting objective level",
    )
    for bps, cs in [((0.0, 1.0, 2.0), (1.0, 2.0)), ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 0.5))]:
        prob = _problem(bps, cs)
        start = initial_guess(prob)
        level = entropy_value(prob, start)
        box = sublevel_bounds(prob, level)
        axis = np.linspace(-3.0 * box.radius, 3.0 * box.radius, 41)
        for combo in itertools.combinations(axis, prob.m):
            if all(abs(v) <= box.radius for v in combo):
                continue  # inside the box: no claim to check
            value = entropy_value(prob, combo)
            assert value > level - 1e-12


def test_criterion_08_pde_cross_validation(record_property):
    record_property(
        "acceptance",
        "criterion 08: direct integration matches the profile (L1 <= 2% at "
        "dx=0.01, ratio >= 1.5 under halving, under 60 s)",
    )
    begun = time.monotonic()
    prob = _problem((0.0, 1.0, 2.0), (1.0, 2.0))
    sol = solve_riemann(0.0, 2.0, prob.partition)
    dists = [
        compare_profiles(fd_solve(prob, 1.0, dx), sol.profile) for dx in (0.02, 0.01)
    ]
    elapsed = time.monotonic() - begun
    assert dists[-1].l1_relative <= 0.02
    assert dists[0].l1 / dists[1].l1 >= 1.5
    assert elapsed <= 60.0


def test_criterion_09_degenerate_structure(record_property):
    record_property(
        "acceptance",
        "criterion 09: degenerate edges give a constant tail with a strong "
        "discontinuity; a degenerate inner interval gives exactly one jump",
    )
    edge = solve_riemann(0.0, 2.0, PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0)))
    front = edge.boundaries[0]
    behind = np.linspace(front - 5.0, front, 25, endpoint=False)
    assert np.all(edge.profile.sample(behind) == 0.0)
    assert all(edge.profile.flux_limits(xi) == (0.0, 0.0) for xi in behind)
    assert len(edge.profile.jumps()) == 1
    assert all(rec.classification == "strong" for rec in edge.jumps)
    assert (edge.profile.jumps()[0].left, edge.profile.jumps()[0].right) == (0.0, 1.0)
    inner = solve_riemann(0.0, 3.0, PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)))
    jumps = inner.profile.jumps()
    assert len(jumps) == 1
    assert (jumps[0].left, jumps[0].right) == (1.0, 2.0)


def test_criterion_10_continuum_limit(record_property):
    record_property(
        "acceptance",
        "criterion 10: discrete inverse profiles converge monotonically to the "
        "exact constant-coefficient inverse; stationarity defect shrinks",
    )
    unit = DiffusionFunction.from_callable(lambda u: 1.0, 0.0, 1.0)
    rows = convergence_study(unit, [2, 4, 8, 16, 32])
    grid = np.array(rows[0].inverse.states)
    exact = np.array([heat_step_inverse(u) for u in grid])
    dists = [float(np.max(np.abs(np.array(r.inverse.positions) - exact))) for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    residuals = []
    for cells in (4, 8, 16, 32):
        minimum = minimize_variational_cost(unit, cells)
        assert minimum.converged
        defect = euler_lagrange_residual(unit, minimum.profile)
        residuals.append(float(np.nanmax(np.abs(defect))))
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_criterion_11_shifted_objective(record_property):
    record_property(
        "acceptance",
        "criterion 11: the shifted objective differs from the raw one by a "
        "constant (1e-12) and keeps the same minimizer",
    )
    rng = np.random.default_rng(SEED + 3)
    for bps, cs in [
        ((0.0, 1.0, 2.0), (1.0, 2.0)),
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0)),
        ((0.0, 1.0, 2.0), (0.0, 1.0)),
    ]:
        prob = _problem(bps, cs)
        offsets = []
        for _ in range(10):
            point = feasible_point(rng, prob)
            raw = entropy_value(prob, point)
            shifted = reference_shifted_value(prob, point)
            offsets.append(shifted - raw)
        spread = max(offsets) - min(offsets)
        assert spread <= 1e-12 * max(1.0, abs(offsets[0]))
        assert offsets[0] == pytest.approx(shift_constant(prob), rel=1e-12, abs=1e-12)
        # a constant offset cannot move the minimizer: the shifted objective
        # is stationary exactly where the raw one is
        result = minimize(prob)
        fd = fd_gradient(lambda vals: reference_shifted_value(prob, vals), result.x)
        assert np.max(np.abs(fd)) <= 1e-6


def test_criterion_12_cli_determinism(record_property, tmp_path):
    record_property(
        "acceptance",
        "criterion 12: every CLI command writes byte-identical outputs on reruns",
    )
    from selfsim.cli import main

    problem_cfg = tmp_path / "problem.cfg"
    problem_cfg.write_text(
        "u_minus = 0\nu_plus = 2\nbreakpoints = [1]\ncoefficients = [1, 2]\n"
        "t = 2\ndx = [0.08, 0.04]\n",
        encoding="utf-8",
    )
    table = tmp_path / "table.csv"
    table.write_text("0.0, 1.0\n1.0, 2.0\n", encoding="utf-8")
    continuum_cfg = tmp_path / "continuum.cfg"
    continuum_cfg.write_text(f"diffusion = {table}\ncells = [4, 8]\n", encoding="utf-8")
    plans = [
        ("solve", problem_cfg),
        ("evaluate", problem_cfg),
        ("validate", problem_cfg),
        ("continuum", continuum_cfg),
    ]
    for command, cfg in plans:
        first = tmp_path / f"{command}_one_"
        second = tmp_path / f"{command}_two_"
        # strict key checking: drop the keys a command does not accept
        text = cfg.read_text(encoding="utf-8")
        if command == "solve":
            text = "".join(l + "\n" for l in text.splitlines() if not l.startswith(("t ", "dx")))
        elif command == "evaluate":
            text = "".join(l + "\n" for l in text.splitlines() if not l.startswith("dx"))
        view = tmp_path / f"{command}.cfg"
        view.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(view), "--out", str(first)]) == 0
        assert main([command, "--config", str(view), "--out", str(second)]) == 0
        ones = sorted(tmp_path.glob(f"{command}_one_*"))
        twos = sorted(tmp_path.glob(f"{command}_two_*"))
        assert ones and len(ones) == len(twos)
        for a, b in zip(ones, twos):
            assert a.read_bytes() == b.read_bytes()
