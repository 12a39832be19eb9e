"""Large coefficient ratios: solved to the 60-digit root, or refused with a typed error.

A live phase whose coefficient is many orders below its neighbour's puts the
scaled ends xi/a of its arc far into a Gaussian tail.  Past scaled end 52
``special.heat_step_arc`` reads such an arc, its ln D, its ratios H'/D and
its curvatures, from ``special.heat_step_delta`` = D/H'(near end), and the
profile reads its values from the same core, the far field of an edge arc
in complement form.  Past what double precision can hold, an
InvalidPartitionError names the coefficient: from validation where xi/a
would overflow, and from the solve where an interior phase is left a few
ulps wide.  ``test_forward_error.py`` holds the solved boundaries of these
cases to the 50-digit minimiser.
"""

import math

import mpmath
import numpy as np
import pytest

from selfsim import PhasePartition, solve_riemann
from selfsim.cli import main
from selfsim.entropy import entropy_pass, feasible_values
from selfsim.optimizer import damped_newton, initial_guess
from selfsim.problem import InvalidPartitionError, normalize_orientation


def _two_phase_root(a0: float, a1: float) -> float:
    """The boundary of states 0 -> 1 on breakpoints (0, 0.5, 1), to 60 digits.

    The interface balance a0 H'(xi/a0) / H(xi/a0) = a1 H'(xi/a1) / H(-xi/a1)
    (both phases carry du = 0.5), with H(t) = erfc(-t/2) / 2.
    """
    with mpmath.workdps(60):
        a0, a1 = mpmath.mpf(a0), mpmath.mpf(a1)

        def ratio(t):  # H'(t) / H(t)
            return mpmath.exp(-t * t / 4) / (mpmath.sqrt(mpmath.pi) * mpmath.erfc(-t / 2))

        def balance(xi):
            return a1 * ratio(-xi / a1) - a0 * ratio(xi / a0)

        return float(mpmath.findroot(balance, (-2, -0.1), solver="anderson"))


def _oriented(breakpoints, coefficients, flip):
    # flipped: w = u_+ - u carries the same boundaries with the partition reversed
    if not flip:
        return breakpoints[0], breakpoints[-1], PhasePartition(breakpoints, coefficients)
    top = breakpoints[-1]
    mirrored = tuple(top - b for b in reversed(breakpoints))
    return top, 0.0, PhasePartition(mirrored, coefficients[::-1])


EDGE = (0.0, 0.5, 1.0)
CASES = [
    *((EDGE, (a0, 1.0), "root") for a0 in (1e-5, 1e-6, 1e-7, 1e-8, 1e-10)),
    # xi / a0 squared overflows (1e-160) or xi / a0 itself does (1e-310)
    *((EDGE, (a0, 1.0), "refused") for a0 in (1e-160, 1e-310)),
    # an interior phase about two rounding units of xi wide at the solution
    ((0.0, 0.5, 1.0, 1.5), (1.0, 1e-8, 2.0), "refused"),
    ((0.0, 1.0, 2.0, 3.0), (1.0, 1e-8, 2.0), "refused"),
]


@pytest.mark.parametrize("flip", [False, True], ids=["increasing", "decreasing"])
@pytest.mark.parametrize("breakpoints, coefficients, outcome", CASES)
def test_large_ratio_solves_to_its_root_or_is_refused(breakpoints, coefficients, outcome, flip):
    u_minus, u_plus, partition = _oriented(breakpoints, coefficients, flip)
    if outcome == "refused":
        k = min(range(len(coefficients)), key=lambda j: partition.coefficients[j])
        with pytest.raises(InvalidPartitionError, match=f"a_{k} = {partition.coefficients[k]!r}"):
            solve_riemann(u_minus, u_plus, partition)
        return
    sol = solve_riemann(u_minus, u_plus, partition)
    root = _two_phase_root(*coefficients)
    assert sol.converged
    assert all(abs(b - root) <= 1e-9 for b in sol.boundaries)
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9


@pytest.mark.parametrize("flip", [False, True], ids=["increasing", "decreasing"])
def test_floor_steps_keep_the_value_finite(flip):
    # a phase at a = 2.2e-8 between a = 0.5 and 5.2e-4 narrows to about an
    # ulp, and Newton steps at the rounding floor skip Armijo.  The bare
    # Newton solve still stops converged ('step') with a finite value at
    # every iterate; solve_riemann then refuses the phase.  No trial here
    # reaches the value +inf; the floor step's backtrack to a finite value
    # is test_optimizer.py::test_floor_step_backtracks_to_keep_the_value_finite
    breakpoints = (0.0, 0.25542867902960276, 0.5169744052760368, 0.5765469132650466,
                   0.5983084296747999, 0.8856904168143693, 0.8917130129253776, 1.0)
    coefficients = (0.0, 0.062180170946197884, 0.0009604081854727534, 0.0, 0.5,
                    2.2375268754549784e-08, 0.0005229803305906562)
    u_minus, u_plus, partition = _oriented(breakpoints, coefficients, flip)
    problem = normalize_orientation(u_minus, u_plus, partition)
    outcome = damped_newton(
        initial_guess(problem), lambda x: entropy_pass(problem, x), feasible_values, max(coefficients)
    )
    assert outcome.converged
    assert all(math.isfinite(record.value) for record in outcome.records)
    with pytest.raises(InvalidPartitionError, match="= 2.2375268754549784e-08 is too small"):
        solve_riemann(u_minus, u_plus, partition)


def _tail_arc_values(profile, a):
    """The edge arc of coefficient ``a`` at points 0, 1, ..., 11 ulps and
    1e-15, 1e-14 and 1 beyond its boundary, and its values there to 50 digits.

    Left edge: v = u_0 + (u_1 - u_0) H(xi/a) / H(b/a), with
    H(t) = erfc(-t/2) / 2; the right edge is its mirror image."""
    (b,) = profile.boundaries
    u0, u1, u2 = profile.states
    side = -1.0 if profile.coefficients[0] == a else 1.0
    points = [b]
    while len(points) < 12:
        points.append(math.nextafter(points[-1], side * math.inf))
    points += [b + side * 1e-15, b + side * 1e-14, b + side]
    far = u0 if side < 0.0 else u2
    with mpmath.workdps(50):
        scale = 2 * mpmath.mpf(a)
        at_b = mpmath.erfc(side * mpmath.mpf(b) / scale)
        values = [
            float(far + (u1 - far) * mpmath.erfc(side * mpmath.mpf(xi) / scale) / at_b)
            for xi in points
        ]
    return points, values


@pytest.mark.parametrize("flip", [False, True], ids=["increasing", "decreasing"])
def test_profile_values_on_a_tail_arc_match_mpmath(flip):
    # a = 1e-8 turns its arc over within a few ulps of the boundary: 1, 3
    # and 10 ulps out it has 0.336, 0.152 and 0.0094 of its jump left; both
    # tails, through the profile and its mirror image
    u_minus, u_plus, partition = _oriented(EDGE, (1e-8, 1.0), flip)
    solved = solve_riemann(u_minus, u_plus, partition).profile
    for profile in (solved, solved.mirrored()):
        points, expected = _tail_arc_values(profile, 1e-8)
        sampled = profile.sample(np.array(points))
        for xi, want, got in zip(points, expected, sampled):
            # within a few units of rounding of the states
            assert abs(profile.limits(xi)[0] - want) <= 4e-16
            assert abs(got - want) <= 4e-16


def test_cli_solve_writes_the_root_of_a_large_ratio(tmp_path):
    config = tmp_path / "ratio.cfg"
    config.write_text(
        "u_minus = 0\nu_plus = 1\nbreakpoints = [0.5]\ncoefficients = [1e-8, 1]\n", encoding="utf-8"
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "r_")]) == 0
    lines = (tmp_path / "r_boundaries.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    (row,) = [line.split(",") for line in lines[1:]]
    assert abs(float(row[header.index("xi")]) - _two_phase_root(1e-8, 1.0)) <= 1e-9
    assert math.isfinite(float(row[header.index("residual")]))


def test_cli_refuses_a_coefficient_whose_quotients_overflow(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "u_minus = 0\nu_plus = 1\nbreakpoints = [0.5]\ncoefficients = [1e-310, 1]\n", encoding="utf-8"
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "t_")]) == 1
    assert "a_0 = 1e-310" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="a phase behind a state band of 1e-12 is too narrow to balance in double "
    "precision, yet 3.3e5 ulps wide, so the solve is not refused",
)
def test_thin_state_band_balances_or_is_refused():
    # ends converged with residuals +-5.0e-8 against a tolerance of 2e-9;
    # a band of 1e-15 leaves +-1.2e-4
    partition = PhasePartition((0.0, 0.5, 0.5 + 1e-12, 1.0), (1.0, 2.0, 0.5))
    try:
        sol = solve_riemann(0.0, 1.0, partition)
    except InvalidPartitionError:
        return
    assert sol.converged
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9 * max(partition.coefficients)
