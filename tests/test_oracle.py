"""Cross-validation machinery: lattice search, bisection, direct integration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfsim import PhasePartition, oracle, solve_riemann
from selfsim.entropy import entropy_value, sublevel_bounds
from selfsim.optimizer import initial_guess
from selfsim.oracle import (
    SAFETY,
    FDGrid,
    compare_profiles,
    fd_solve,
    grid_search_min,
    stefan_bisection,
)
from selfsim.problem import normalize_orientation

from conftest import admissible, part
from fd_reference import full_array_fd_solve, reference_fd_solve

STEFAN_FRONT = -0.7156690933440143  # u=(0,1,2), a=(0,1); frozen from this oracle


def _oriented(breakpoints, coefficients):
    partition = PhasePartition(breakpoints=breakpoints, coefficients=coefficients)
    return normalize_orientation(breakpoints[0], breakpoints[-1], partition)


def _mirrored(problem):
    # the other orientation in the solver frame: u -> u_0 + u_{n+1} - u, phases reversed
    bps = problem.partition.breakpoints
    lo, hi = bps[0], bps[-1]
    return _oriented(tuple(lo + hi - b for b in reversed(bps)), problem.partition.coefficients[::-1])


# ---------------------------------------------------------------------------
# lattice search
# ---------------------------------------------------------------------------


def test_grid_search_agrees_with_newton_two_phase():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    got = grid_search_min(prob)
    sol = solve_riemann(0.0, 2.0, prob.partition)
    assert abs(got.minimizer[0] - sol.boundaries[0]) <= 1e-4


def test_grid_search_agrees_with_newton_two_boundaries():
    prob = _oriented((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.0))
    got = grid_search_min(prob)
    sol = solve_riemann(0.0, 3.0, prob.partition)
    for lattice, newton in zip(got.minimizer, sol.boundaries):
        assert abs(lattice - newton) <= 1e-4


def test_grid_search_rounds_never_increase():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    got = grid_search_min(prob)
    assert len(got.round_values) == 4
    assert all(b <= a for a, b in zip(got.round_values, got.round_values[1:]))
    assert got.round_values[-1] == got.value


def test_grid_search_merged_boundary():
    # the degenerate inner interval leaves one fused unknown: still m=1
    prob = _oriented((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    assert prob.m == 1
    got = grid_search_min(prob)
    sol = solve_riemann(0.0, 3.0, prob.partition)
    assert abs(got.minimizer[0] - sol.boundaries[0]) <= 1e-4


def test_grid_search_two_boundaries_within_one_lattice_step():
    # a thin middle phase puts both boundaries within one coarse step, so
    # each refinement round meets candidates out of order and skips them;
    # the search still ends within its finest step of the minimiser
    prob = _oriented((0.0, 0.5, 0.501, 1.0), (1.0, 2.0, 1.0))
    start = initial_guess(prob)
    radius = sublevel_bounds(prob, entropy_value(prob, start)).radius
    coarse = radius / oracle.COARSE_CELLS
    finest = coarse / oracle.REFINE_FACTOR**oracle.REFINE_ROUNDS
    sol = solve_riemann(0.0, 1.0, prob.partition)
    assert sol.boundaries[1] - sol.boundaries[0] < coarse
    got = grid_search_min(prob)
    assert got.minimizer[0] < got.minimizer[1]
    assert all(b <= a for a, b in zip(got.round_values, got.round_values[1:]))
    for lattice, newton in zip(got.minimizer, sol.boundaries):
        assert abs(lattice - newton) <= finest


def test_grid_search_rejects_wrong_sizes():
    prob = _oriented((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 2.0, 1.0, 2.0, 1.0))
    assert prob.m == 4
    with pytest.raises(ValueError, match="m <= 3"):
        grid_search_min(prob)
    single = _oriented((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="no free boundaries"):
        grid_search_min(single)


# ---------------------------------------------------------------------------
# bisection on the interface balance
# ---------------------------------------------------------------------------


def test_bisection_left_degenerate_regression():
    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    xi = stefan_bisection(prob)
    assert xi < 0.0
    assert abs(xi - STEFAN_FRONT) <= 1e-11


def test_bisection_residual_below_tolerance():
    from selfsim.oracle import _interface_residual

    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    xi = stefan_bisection(prob)
    assert abs(_interface_residual(prob, xi)) <= 1e-12


def test_bisection_mirrored_problem_positive_front():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 0.0))
    xi = stefan_bisection(prob)
    assert xi > 0.0
    # reflection of the left-degenerate configuration with swapped
    # increments; not the exact negation of STEFAN_FRONT


def test_bisection_matches_newton():
    for coeffs in [(0.0, 1.0), (1.0, 0.0), (0.0, 0.7), (1.3, 0.0)]:
        prob = _oriented((0.0, 1.0, 2.0), coeffs)
        xi = stefan_bisection(prob)
        sol = solve_riemann(0.0, 2.0, prob.partition)
        assert abs(xi - sol.boundaries[0]) <= 1e-9
    # a diffusive phase far wider than the frozen one puts the front at
    # -+6.7338, outside the first bracket +-2 max(a, 1), so the bracket widens
    for breakpoints, coeffs in [
        ((0.0, 1e-6, 1.0), (0.0, 1.0)),
        ((0.0, 1.0 - 1e-6, 1.0), (1.0, 0.0)),
    ]:
        prob = _oriented(breakpoints, coeffs)
        xi = stefan_bisection(prob)
        sol = solve_riemann(0.0, 1.0, prob.partition)
        assert abs(xi) > 2.0 * max(max(coeffs), 1.0)
        assert abs(xi - sol.boundaries[0]) <= 1e-12


def test_bisection_rejects_other_shapes():
    two = _oriented((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="exactly one boundary"):
        stefan_bisection(two)
    nondeg = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="degenerate edge"):
        stefan_bisection(nondeg)


# ---------------------------------------------------------------------------
# direct integration of the parabolic equation
# ---------------------------------------------------------------------------


def test_fd_heat_matches_closed_form():
    prob = _oriented((0.0, 1.0), (1.0,))
    sol = solve_riemann(0.0, 1.0, prob.partition)
    errors = []
    for dx in (0.08, 0.04, 0.02):
        fd = fd_solve(prob, 1.0, dx)
        errors.append(compare_profiles(fd, sol.profile).l1)
    assert errors[-1] <= 1e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 1.5


def test_fd_grid_invariants():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    for t_final, dx in [(1.0, 0.05), (0.25, 0.1), (4.0, 0.2)]:
        fd = fd_solve(prob, t_final, dx)
        a_max = max(prob.partition.coefficients)
        assert fd.dt <= dx * dx / (2.0 * a_max * a_max) + 1e-18
        assert fd.half_width >= 10.0 * a_max * math.sqrt(t_final)
        assert fd.steps * fd.dt == pytest.approx(t_final, rel=1e-12)
        assert fd.positions.size == fd.cells.size


def test_fd_rejects_bad_parameters():
    prob = _oriented((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        fd_solve(prob, 0.0, 0.05)
    with pytest.raises(ValueError):
        fd_solve(prob, 1.0, -0.1)
    for t_final, dx in ((math.inf, 0.05), (math.nan, 0.05), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            fd_solve(prob, t_final, dx)


def test_fd_rejects_a_grid_beyond_floats():
    # a cell count that overflows, a count of cell updates or of steps that
    # does (cells x steps near 3.6e452; t / dt_bound = inf), and a stability
    # bound whose dx^2 underflows to 0 (the bound of a huge coefficient too),
    # are ValueErrors raised before any grid exists
    prob = _oriented((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="more cells than a float can count"):
        fd_solve(prob, 1.0, 1e-320)
    readme = _oriented((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    for t_final, dx in ((1.0, 1e-150), (1e300, 1e-5)):
        with pytest.raises(ValueError, match="more cell updates than a float can count"):
            fd_solve(readme, t_final, dx)
    with pytest.raises(ValueError, match="underflows to 0 at dx = 1e-163"):
        fd_solve(prob, 1e-320, 1e-163)
    with pytest.raises(ValueError, match="underflows to 0 at dx = 1e\\+100, a_max = 1e\\+200"):
        fd_solve(_oriented((0.0, 1.0), (1e200,)), 1e-300, 1e100)


def test_fd_refuses_work_beyond_its_bound(monkeypatch):
    # cells x steps may reach MAX_CELL_UPDATES and not pass it
    prob = _oriented((0.0, 1.0), (1.0,))
    fd = fd_solve(prob, 0.01, 0.05)
    updates = fd.cells.size * fd.steps
    monkeypatch.setattr(oracle, "MAX_CELL_UPDATES", float(updates))
    assert fd_solve(prob, 0.01, 0.05).cells.tobytes() == fd.cells.tobytes()
    monkeypatch.setattr(oracle, "MAX_CELL_UPDATES", float(updates - 1))
    with pytest.raises(ValueError, match=f"{fd.cells.size} cells over {fd.steps} steps is {updates:.3g} cell updates"):
        fd_solve(prob, 0.01, 0.05)


def test_fd_refuses_before_it_allocates():
    # the work bound runs before the grid exists: a refused run of 2e6
    # cells (16 MB of float64 each array) allocates next to nothing
    prob = _oriented((0.0, 1.0), (1.0,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cell updates, more than the 1e\\+11 allowed"):
            fd_solve(prob, 1.0, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_fd_names_a_grid_that_cannot_be_allocated(monkeypatch):
    # a grid the allocator refuses is a ValueError naming its cell count.  A
    # frozen step meets no work bound, but its half-width a_max sqrt(t) is 0,
    # so even at dx = 1e-300 it is two cells
    frozen = fd_solve(_oriented((0.0, 1.0), (0.0,)), 1.0, 1e-300)
    assert frozen.cells.tolist() == [0.0, 1.0]
    assert frozen.steps == 0

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(oracle.np, "full", out_of_memory)
    with pytest.raises(ValueError, match="an FD grid of 402 cells cannot be allocated"):
        fd_solve(_oriented((0.0, 1.0), (1.0,)), 1.0, 0.05)


def test_fd_frozen_step_allocates_two_cells():
    # the frozen step 1 -> 3 returns unchanged on two cells: at dx = 1e-6 a
    # grid of 10 sqrt(t) / dx cells a side would take 160 MB
    prob = _oriented((1.0, 3.0), (0.0,))
    tracemalloc.start()
    try:
        fd = fd_solve(prob, 1.0, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fd.cells.tolist() == [1.0, 3.0]
    assert fd.steps == 0
    assert peak < 1e6


def test_fd_refuses_a_subnormal_dx_squared():
    # a 10-cell grid of one step, but lam = dt / dx^2 would divide by a
    # subnormal: refused, though the run is tiny
    prob = _oriented((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="dx\\^2 = 1e-310 at dx = 1e-155 is below the smallest normal float"):
        fd_solve(prob, 1e-311, 1e-155)


@pytest.mark.parametrize("a", [1e-160, 1e-200])
def test_fd_takes_a_step_on_a_vanishing_coefficient(a):
    # at 1e-160 the stability bound overflows to inf, at 1e-200 the square
    # of a_max underflows to 0: one step of the whole horizon either way
    prob = _oriented((0.0, 0.5, 1.0), (a, 0.0))
    fd = fd_solve(prob, 1.0, 0.05)
    assert fd.steps >= 1 and fd.steps * fd.dt == 1.0
    assert np.all(np.isfinite(fd.cells))
    assert (fd.cells[0], fd.cells[-1]) == (0.0, 1.0)


def test_fd_conserves_mass():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    fd = fd_solve(prob, 1.0, 0.04)
    initial = np.where(fd.positions < 0.0, prob.partition.breakpoints[0], prob.partition.breakpoints[-1])
    drift = float(np.sum(fd.cells - initial) * fd.dx)
    assert abs(drift) <= 1e-8


def test_fd_two_phase_cross_validation():
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    sol = solve_riemann(0.0, 2.0, prob.partition)
    dists = [compare_profiles(fd_solve(prob, 1.0, dx), sol.profile) for dx in (0.04, 0.02)]
    assert dists[-1].l1_relative <= 0.02
    assert dists[0].l1 / dists[1].l1 >= 1.5


def test_fd_degenerate_front():
    # sharp interface: the integrator must find the front the minimizer
    # placed, without being told where it is
    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    sol = solve_riemann(0.0, 2.0, prob.partition)
    dx = 0.02
    fd = fd_solve(prob, 1.0, dx)
    dist = compare_profiles(fd, sol.profile)
    assert dist.l1 <= 0.01
    first_wet = int(np.argmax(fd.cells > 0.5))
    assert abs(fd.positions[first_wet] - sol.boundaries[0]) <= 2.5 * dx


def test_fd_degenerate_sup_error_off_the_front():
    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    sol = solve_riemann(0.0, 2.0, prob.partition)
    fd = fd_solve(prob, 1.0, 0.005)
    dist = compare_profiles(fd, sol.profile)
    assert dist.linf_away_from_jumps <= 0.03


def test_fd_preserves_monotonicity():
    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    for t_final in (0.1, 0.5, 1.0):
        fd = fd_solve(prob, t_final, 0.02)
        assert np.all(np.diff(fd.cells) >= 0.0)
    # fd_solve finds each phase's block of cells by one searchsorted, so the
    # cells must stay sorted: part(n, s), both orientations
    for n in (2, 4, 8):
        for seed in (0, 1, 2):
            for prob in (part(n, seed), _mirrored(part(n, seed))):
                for t_final in (0.1, 1.0):
                    fd = fd_solve(prob, t_final, 0.05)
                    assert np.all(np.diff(fd.cells) >= 0.0), (n, seed, t_final)


def _fd_partitions():
    """Admissible partitions with n <= 8, coefficients in [0.2, 1.5] or zero
    (edge and interior), states off the origin, and a random orientation."""
    coefficient = st.one_of(st.just(0.0), st.floats(0.2, 1.5))
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.floats(-3.0, 3.0),
            st.lists(st.floats(0.1, 1.0), min_size=n + 1, max_size=n + 1),
            st.lists(coefficient, min_size=n + 1, max_size=n + 1),
            st.booleans(),
        )
    )


@given(_fd_partitions(), st.floats(0.05, 0.25), st.floats(0.05, 0.1))
# heat from 1e4 to 1e4 + 1: lam*A(u) as slope*u + intercept, without the
# phase's node subtracted first, is 1e-11 of the jump off here
@example(drawn=(1e4, [1.0], [1.0], False), t_final=0.25, dx=0.0625)
# the benchmark's validate problem: the README three-phase partition on the
# grid and horizon of the cli workload
@example(drawn=(0.0, [1.0, 1.0, 1.0], [1.0, 0.0, 2.0], False), t_final=1.0, dx=0.025)
@settings(max_examples=60, deadline=None)
def test_fd_matches_the_interp_loop(drawn, t_final, dx):
    start, gaps, coefficients, flip = drawn
    bps = tuple((start + np.concatenate([[0.0], np.cumsum(gaps)])).tolist())
    partition = PhasePartition(bps, admissible(coefficients))
    ends = (bps[-1], bps[0]) if flip else (bps[0], bps[-1])
    prob = normalize_orientation(*ends, partition)
    got = fd_solve(prob, t_final, dx)
    ref = reference_fd_solve(prob, t_final, dx)
    assert (got.steps, got.dt, got.half_width) == (ref.steps, ref.dt, ref.half_width)
    span = bps[-1] - bps[0]
    assert np.max(np.abs(got.cells - ref.cells)) <= 1e-12 * span
    # sorted up to rounding: both loops swap neighbours that agree to one ulp
    # of a far state in about 1 % of random draws; a larger swap would move
    # a cell into the wrong phase block
    ulp = np.spacing(max(abs(bps[0]), abs(bps[-1])))
    assert np.all(np.diff(got.cells) >= -4.0 * ulp)
    assert (got.cells[0], got.cells[-1]) == (bps[0], bps[-1])


@given(_fd_partitions(), st.floats(0.05, 0.25), st.floats(0.05, 0.1))
@example(drawn=(1e4, [1.0], [1.0], False), t_final=0.25, dx=0.0625)
# the benchmark's validate problem
@example(drawn=(0.0, [1.0, 1.0, 1.0], [1.0, 0.0, 2.0], False), t_final=1.0, dx=0.025)
# a small right-edge coefficient keeps nearly half the grid at u_{n+1}; the same
# coefficient on the left edge, in the flipped orientation
@example(drawn=(0.0, [1.0, 1.0], [2.0, 0.05], False), t_final=1.0, dx=0.05)
@example(drawn=(0.0, [1.0, 1.0], [0.05, 2.0], True), t_final=1.0, dx=0.05)
@settings(max_examples=60, deadline=None)
def test_fd_skips_the_flat_block_bit_for_bit(drawn, t_final, dx):
    # integrating only up to two cells into the flat block above the last
    # node changes no bit of the full-array loop
    start, gaps, coefficients, flip = drawn
    bps = tuple((start + np.concatenate([[0.0], np.cumsum(gaps)])).tolist())
    partition = PhasePartition(bps, admissible(coefficients))
    ends = (bps[-1], bps[0]) if flip else (bps[0], bps[-1])
    prob = normalize_orientation(*ends, partition)
    got = fd_solve(prob, t_final, dx)
    ref = full_array_fd_solve(prob, t_final, dx)
    assert (got.cells.tobytes(), got.steps, got.dt) == (ref.cells.tobytes(), ref.steps, ref.dt)


@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),
        ((1.0, 1.5, 2.5, 3.0), (0.0, 2.0, 0.7)),
        ((-4.0, -3.0, -1.0), (0.6, 1.3)),
    ],
)
def test_fd_finite_propagation(breakpoints, coefficients):
    # each step reaches one cell further from the initial jump; beyond that
    # the cells must keep their far states exactly, so neither the flat
    # block above the last node nor an intercept's rounding may drift
    for prob in (_oriented(breakpoints, coefficients), _mirrored(_oriented(breakpoints, coefficients))):
        a_max = max(coefficients)
        dx = 0.05
        fd = fd_solve(prob, 4.0 * SAFETY * dx * dx / (2.0 * a_max * a_max), dx)
        assert 4 <= fd.steps <= 5
        half = fd.cells.size // 2  # the jump lies between cells half - 1 and half
        lo, hi = prob.partition.breakpoints[0], prob.partition.breakpoints[-1]
        assert np.all(fd.cells[: half - fd.steps] == lo)
        assert np.all(fd.cells[half + fd.steps :] == hi)
        assert fd.cells[half - 1] > lo and fd.cells[half] < hi


def test_fd_comparison_principle():
    # ordered steps stay ordered cellwise under the monotone update
    lower = _oriented((0.0, 1.0), (1.0,))
    upper = _oriented((0.5, 1.5), (1.0,))
    fd_lower = fd_solve(lower, 1.0, 0.02)
    fd_upper = fd_solve(upper, 1.0, 0.02)
    assert fd_lower.cells.size == fd_upper.cells.size
    assert np.all(fd_upper.cells >= fd_lower.cells)


def test_fd_selfsimilar_collapse():
    # u(4t, 2x) = u(t, x): two integrations at different horizons land on
    # the same function of x/sqrt(t), up to scheme error
    prob = _oriented((0.0, 1.0, 2.0), (1.0, 2.0))
    early = fd_solve(prob, 0.25, 0.02)
    late = fd_solve(prob, 1.0, 0.02)
    xi = np.linspace(-5.0, 5.0, 401)
    v_early = np.interp(xi * 0.5, early.positions, early.cells)
    v_late = np.interp(xi, late.positions, late.cells)
    assert np.max(np.abs(v_early - v_late)) <= 0.01


# ---------------------------------------------------------------------------
# distance report
# ---------------------------------------------------------------------------


def test_compare_profiles_self_distance_is_zero():
    sol = solve_riemann(0.0, 2.0, PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0)))
    dx = 0.05
    half_width = 5.0
    x = np.arange(int(2 * half_width / dx) + 1) * dx - half_width
    grid = FDGrid(
        half_width=half_width,
        dx=dx,
        dt=0.0,
        t_final=1.0,
        cells=sol.profile.sample(x),
        steps=0,
    )
    dist = compare_profiles(grid, sol.profile)
    assert dist.l1 == 0.0
    assert dist.linf_away_from_jumps == 0.0
    assert dist.l1_relative == 0.0


def test_compare_profiles_zero_mass_with_an_error_is_infinitely_relative():
    # the frozen step moves no mass; a grid that misses it is still reported
    sol = solve_riemann(1.0, 3.0, PhasePartition((1.0, 3.0), (0.0,)))
    grid = FDGrid(half_width=1.0, dx=0.5, dt=0.0, t_final=1.0, cells=np.full(5, 2.0), steps=0)
    dist = compare_profiles(grid, sol.profile)
    assert dist.l1 == 2.0
    assert dist.l1_relative == math.inf


def test_compare_profiles_collar_width_is_respected():
    # the sup-norm column skips exactly the cells within one cell of a jump,
    # where the grid's O(1) error sits
    prob = _oriented((0.0, 1.0, 2.0), (0.0, 1.0))
    sol = solve_riemann(0.0, 2.0, prob.partition)
    fd = fd_solve(prob, 1.0, 0.04)
    dist = compare_profiles(fd, sol.profile)
    diff = np.abs(fd.cells - sol.profile.sample(fd.positions))
    near = np.abs(fd.positions - sol.boundaries[0]) <= fd.dx
    assert np.any(near)
    assert dist.linf_away_from_jumps == np.max(diff[~near])
    assert dist.linf_away_from_jumps < np.max(diff)
