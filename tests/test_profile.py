"""Profile reconstruction, pointwise evaluation, and jump diagnostics."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfsim import PhasePartition, eval_selfsimilar, eval_solution, solve_riemann
from selfsim.api import KIND_FROZEN_STEP, KIND_GENERAL, KIND_SINGLE_ARC
from selfsim.cli import main
from selfsim.problem import diffusion_antiderivative, validate
from selfsim.profile import JumpPoint, SelfSimilarProfile, build_profile, flux, jump_residuals
from selfsim.special import TAIL_FROM, heat_step, heat_step_deriv

from conftest import admissible, make_problem, part
from jump_reference import reference_jump_residuals


def _solve(breakpoints, coefficients):
    part = PhasePartition(breakpoints=breakpoints, coefficients=coefficients)
    return solve_riemann(breakpoints[0], breakpoints[-1], part)


# ---------------------------------------------------------------------------
# what the profile is made of: boundaries, states, coefficients
# ---------------------------------------------------------------------------


def test_single_arc_closed_form():
    sol = _solve((0.0, 2.0), (1.5,))
    assert sol.kind == KIND_SINGLE_ARC
    assert sol.boundaries == ()
    assert sol.profile.jumps() == ()
    # the profile is exactly u_- + (u_+ - u_-) * F(xi / a)
    for xi in np.linspace(-8.0, 8.0, 81):
        assert eval_selfsimilar(sol.profile, xi) == 2.0 * heat_step(xi / 1.5)
    assert eval_selfsimilar(sol.profile, 0.0) == 1.0


def test_frozen_step_structure():
    sol = _solve((1.0, 3.0), (0.0,))
    assert sol.kind == KIND_FROZEN_STEP
    assert sol.profile.jumps() == (JumpPoint(0.0, 1.0, 3.0),)
    xs = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_array_equal(sol.profile.sample(xs), np.where(xs < 0.0, 1.0, 3.0))
    assert all(flux(sol.profile, xi) == 0.0 for xi in xs)
    # the step never moves: a genuine jump fixed at xi = 0
    assert eval_selfsimilar(sol.profile, 0.0) == (1.0, 3.0)
    assert eval_selfsimilar(sol.profile, -1.0) == 1.0
    assert eval_selfsimilar(sol.profile, 1.0) == 3.0


def test_left_degenerate_structure():
    sol = _solve((0.0, 1.0, 2.0), (0.0, 1.0))
    front = sol.boundaries[0]
    assert front < 0.0
    assert sol.profile.jumps() == (JumpPoint(front, 0.0, 1.0),)
    # left of the dead edge phase: exactly u_0, no flux
    behind = np.linspace(front - 5.0, front, 50, endpoint=False)
    np.testing.assert_array_equal(sol.profile.sample(behind), 0.0)
    assert all(flux(sol.profile, xi) == 0.0 for xi in behind)
    # right of it: one arc rising from u_1 towards u_2
    ahead = sol.profile.sample(np.linspace(front + 1e-3, 6.0, 50))
    assert np.all((ahead > 1.0) & (ahead < 2.0)) and np.all(np.diff(ahead) > 0.0)
    # one-sided fluxes at the front: zero from the frozen side, -xi/2 from
    # the moving side (the interface balance with a unit state jump)
    left_flux, right_flux = flux(sol.profile, front)
    assert left_flux == 0.0
    assert abs(right_flux - (-front / 2.0)) < 1e-12


def test_merged_interval_structure():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    assert sol.kind == KIND_GENERAL
    # the degenerate inner interval collapses: both nominal boundaries sit
    # on the same line and the full inner increment jumps there
    line = sol.boundaries[0]
    assert sol.boundaries == (line, line)
    assert sol.profile.jumps() == (JumpPoint(line, 1.0, 2.0),)
    left = sol.profile.sample(np.linspace(line - 6.0, line, 50, endpoint=False))
    right = sol.profile.sample(np.linspace(line + 1e-3, line + 8.0, 50))
    assert np.all((left > 0.0) & (left < 1.0)) and np.all(np.diff(left) > 0.0)
    assert np.all((right > 2.0) & (right < 3.0)) and np.all(np.diff(right) > 0.0)


def test_profile_is_its_three_tuples():
    sol = _solve((0.0, 1.0, 2.0), (0.0, 1.0))
    prof = sol.profile
    assert prof == SelfSimilarProfile(
        boundaries=sol.boundaries, states=(0.0, 1.0, 2.0), coefficients=(0.0, 1.0)
    )
    assert prof.left_state == 0.0
    assert prof.right_state == 2.0
    # the ln D that sample and jump_residuals cache is no part of the value
    prof.sample(np.linspace(-3.0, 3.0, 7))
    jump_residuals(sol.problem, prof)
    fresh = SelfSimilarProfile(sol.boundaries, (0.0, 1.0, 2.0), (0.0, 1.0))
    assert "_log_norms" in vars(prof) and "_log_norms" not in vars(fresh)
    assert prof == fresh and hash(prof) == hash(fresh) and repr(prof) == repr(fresh)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def test_eval_hits_breakpoint_states_exactly():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    for k, xi in enumerate(sol.boundaries):
        assert eval_selfsimilar(sol.profile, xi) == float(k + 1)


def test_eval_far_field_limits():
    sol = _solve((0.0, 1.0, 2.0), (1.0, 2.0))
    assert eval_selfsimilar(sol.profile, -math.inf) == 0.0
    assert eval_selfsimilar(sol.profile, math.inf) == 2.0
    assert abs(eval_selfsimilar(sol.profile, -40.0) - 0.0) < 1e-80
    assert abs(eval_selfsimilar(sol.profile, 40.0) - 2.0) < 1e-80


def test_eval_solution_identities():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    prof = sol.profile
    v0 = eval_selfsimilar(prof, 0.0)
    for t in (0.25, 1.0, 9.0, 1e6):
        assert eval_solution(prof, t, 0.0) == v0
    assert eval_solution(prof, 4.0, 2.0) == eval_selfsimilar(prof, 1.0)


def test_eval_solution_scaling_invariance():
    # u(lambda^2 t, lambda x) = u(t, x)
    sol = _solve((0.0, 1.0, 2.0), (1.0, 2.0))
    lam = 3.0
    for t, x in [(1.0, 0.5), (0.25, -1.0), (4.0, 1.5), (1.0, 0.0)]:
        a = eval_solution(sol.profile, lam**2 * t, lam * x)
        b = eval_solution(sol.profile, t, x)
        assert abs(a - b) < 1e-14


# t = inf used to read v(0) for every finite x
@pytest.mark.parametrize("t", [0.0, -1.0, -1e-300, math.inf, math.nan])
def test_eval_solution_rejects_nonpositive_time(t):
    sol = _solve((0.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        eval_solution(sol.profile, t, 1.0)


@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)), ((0.0, 2.0), (1.5,))],
    ids=["readme", "single-arc"],
)
def test_nan_xi_is_rejected_and_infinite_xi_reads_the_far_field(breakpoints, coefficients):
    # NaN used to read as the jump (1.0, 2.0) on the README problem and as
    # (nan, nan) on a single arc
    sol = _solve(breakpoints, coefficients)
    for query in (eval_selfsimilar, flux, SelfSimilarProfile.limits, SelfSimilarProfile.flux_limits):
        with pytest.raises(ValueError, match="NaN"):
            query(sol.profile, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        eval_solution(sol.profile, 1.0, math.nan)
    assert eval_selfsimilar(sol.profile, -math.inf) == breakpoints[0]
    assert eval_selfsimilar(sol.profile, math.inf) == breakpoints[-1]
    assert eval_solution(sol.profile, 1.0, math.inf) == breakpoints[-1]


@pytest.mark.parametrize(
    "u_minus, u_plus, breakpoints, coefficients",
    [
        (0.0, 3.0, (0.0, 1.0, 3.0), (1.0, 0.0)),
        (0.0, 3.0, (0.0, 1.0, 3.0), (1.0, 2.0)),
        (3.0, 0.0, (0.0, 3.0), (0.0,)),
    ],
    ids=["dead-right-edge", "live-right-edge", "frozen-step"],
)
def test_sample_rejects_nan_and_reads_the_far_field_at_infinity(
    u_minus, u_plus, breakpoints, coefficients
):
    # sample sorted NaN into the last phase: it read [3.] on the dead right
    # edge, [nan] on the live one and [0.] on the frozen step 3 -> 0
    profile = solve_riemann(u_minus, u_plus, PhasePartition(breakpoints, coefficients)).profile
    with pytest.raises(ValueError, match="NaN"):
        profile.sample([0.0, math.nan])
    np.testing.assert_array_equal(profile.sample([-math.inf, math.inf]), [u_minus, u_plus])


def test_profile_is_nondecreasing(rng):
    xs = np.linspace(-9.0, 9.0, 4001)
    for _ in range(20):
        problem = make_problem(rng, phases=int(rng.integers(1, 6)))
        sol = solve_riemann(
            problem.partition.breakpoints[0],
            problem.partition.breakpoints[-1],
            problem.partition,
        )
        v = sol.profile.sample(xs)
        assert np.all(np.diff(v) >= 0.0)


def test_arcs_strictly_increasing_inside():
    sol = _solve((0.0, 1.0, 2.0), (1.0, 2.0))
    ends = (-8.0,) + sol.boundaries + (8.0,)
    for lo, hi in zip(ends, ends[1:]):
        v = sol.profile.sample(np.linspace(lo + 1e-6, hi - 1e-6, 200))
        assert np.all(np.diff(v) > 0.0)


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------


def test_flux_vanishes_in_far_field():
    sol = _solve((0.0, 1.0, 2.0), (1.0, 2.0))
    assert flux(sol.profile, math.inf) == 0.0
    assert flux(sol.profile, -math.inf) == 0.0
    assert abs(flux(sol.profile, 60.0)) < 1e-60
    assert abs(flux(sol.profile, -60.0)) < 1e-60


def test_flux_single_arc_at_origin():
    a = 1.5
    sol = _solve((0.0, 2.0), (a,))
    assert flux(sol.profile, 0.0) == a * 2.0 * heat_step_deriv(0.0)


def test_flux_zero_on_constant_segments():
    sol = _solve((0.0, 1.0, 2.0), (0.0, 1.0))
    front = sol.boundaries[0]
    for xi in np.linspace(front - 3.0, front - 0.01, 25):
        assert flux(sol.profile, xi) == 0.0


def test_flux_continuous_across_weak_boundaries(rng):
    # the antiderivative of the diffusion applied to v must come out C^1
    # wherever the profile itself is continuous
    for _ in range(15):
        problem = make_problem(rng, phases=int(rng.integers(2, 6)))
        sol = solve_riemann(
            problem.partition.breakpoints[0],
            problem.partition.breakpoints[-1],
            problem.partition,
        )
        assert sol.converged
        for rec in sol.jumps:
            if rec.classification != "weak":
                continue
            fl, fr = sol.profile.flux_limits(rec.location)
            assert abs(fl - fr) <= 1e-9


# ---------------------------------------------------------------------------
# jump diagnostics
# ---------------------------------------------------------------------------


def test_jump_records_at_minimizer():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    recs = sol.jumps
    assert [r.boundary for r in recs] == [1, 2]
    assert [r.slot for r in recs] == [0, 1]
    for r in recs:
        assert r.classification == "weak"
        assert r.left == r.right
        assert r.a_jump == 0.0
        assert abs(r.rh_residual) <= 1e-9


def test_jump_records_fused_slots():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    recs = sol.jumps
    assert [r.boundary for r in recs] == [1, 2]
    assert [r.slot for r in recs] == [0, 0]
    for r in recs:
        assert r.classification == "strong"
        assert (r.left, r.right) == (1.0, 2.0)
        assert r.a_jump == 0.0
        assert abs(r.rh_residual) <= 1e-9


def test_classification_strong_iff_profile_jumps(rng):
    for _ in range(25):
        problem = make_problem(rng, phases=int(rng.integers(1, 6)))
        sol = solve_riemann(
            problem.partition.breakpoints[0],
            problem.partition.breakpoints[-1],
            problem.partition,
        )
        for r in sol.jumps:
            assert (r.classification == "strong") == (r.left != r.right)
            assert r.a_jump == 0.0
            assert abs(r.rh_residual) <= 1e-9


def test_perturbed_boundary_localizes_residual():
    # three free boundaries: moving the first one breaks the balance at
    # boundaries 1 and 2 (they share an interval) but not at boundary 3
    sol = _solve((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 0.5, 2.0, 0.8))
    assert all(abs(r.rh_residual) <= 1e-9 for r in sol.jumps)
    vals = np.array(sol.profile.boundaries)
    vals[0] += 0.01
    perturbed = build_profile(sol.problem, vals)
    recs = jump_residuals(sol.problem, perturbed)
    assert abs(recs[0].rh_residual) > 1e-4
    assert abs(recs[1].rh_residual) > 1e-4
    assert abs(recs[2].rh_residual) <= 1e-9


def test_perturbed_two_phase_touches_both_records():
    # with two boundaries every interval is shared, so both residuals move
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    vals = np.array(sol.profile.boundaries)
    vals[0] += 0.01
    perturbed = build_profile(sol.problem, vals)
    recs = jump_residuals(sol.problem, perturbed)
    assert all(abs(r.rh_residual) > 1e-4 for r in recs)


def test_stefan_front_balance_is_exact():
    sol = _solve((0.0, 1.0, 2.0), (0.0, 1.0))
    (rec,) = sol.jumps
    assert rec.classification == "strong"
    assert (rec.left, rec.right) == (0.0, 1.0)
    # [u] * xi / 2 + [flux] with [u] = 1: the moving-side flux equals -xi/2
    assert abs(rec.rh_residual) <= 1e-12


# ---------------------------------------------------------------------------
# conservation and reflection
# ---------------------------------------------------------------------------


def _excess_mass(profile, u_minus, u_plus, t, radius):
    root = math.sqrt(t)

    def integrand(x):
        x = float(x)
        v = profile.limits(x / root)[1]
        return v - (u_minus if x < 0 else u_plus)

    # tanh-sinh on each piece between the kinks and the jump at 0
    points = sorted({b * root for b in profile.boundaries} | {0.0})
    return float(mpmath.quad(integrand, [-radius, *points, radius]))


@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [
        ((0.0, 1.0, 2.0), (1.0, 2.0)),
        ((0.0, 1.0, 2.0), (0.0, 1.0)),
        ((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)),
    ],
)
def test_conservation_between_times(breakpoints, coefficients):
    # the area between u(t, .) and the initial step is time-invariant;
    # compare t = 1 against t = 4 (window doubled with the substitution)
    sol = _solve(breakpoints, coefficients)
    radius = 14.0 * max(max(coefficients), 1.0)
    m1 = _excess_mass(sol.profile, breakpoints[0], breakpoints[-1], 1.0, radius)
    m4 = _excess_mass(sol.profile, breakpoints[0], breakpoints[-1], 4.0, 2.0 * radius)
    assert abs(m1 - m4) <= 1e-8


def test_mirrored_is_an_involution():
    sol = _solve((0.0, 1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    twice = sol.profile.mirrored().mirrored()
    assert twice == sol.profile
    xs = np.linspace(-7.0, 7.0, 501)
    np.testing.assert_array_equal(sol.profile.sample(xs), twice.sample(xs))
    assert twice.boundaries == sol.profile.boundaries


def test_decreasing_states_solved_by_reflection():
    part = PhasePartition(breakpoints=(0.0, 1.0, 2.0, 3.0), coefficients=(1.0, 0.5, 2.0))
    inc = solve_riemann(0.0, 3.0, part)
    dec = solve_riemann(3.0, 0.0, part)
    assert dec.profile.left_state == 3.0
    assert dec.profile.right_state == 0.0
    assert dec.boundaries == tuple(-b for b in reversed(inc.boundaries))
    xs = np.linspace(-7.0, 7.0, 501)
    np.testing.assert_allclose(
        dec.profile.sample(xs), inc.profile.mirrored().sample(xs), rtol=0, atol=1e-12
    )
    for rec in dec.jumps:
        assert abs(rec.rh_residual) <= 1e-9


def test_mirrored_profile_still_balances():
    sol = _solve((0.0, 1.0, 2.0), (0.0, 1.0))
    mirrored = sol.profile.mirrored()
    assert mirrored.boundaries[0] > 0.0
    assert mirrored.left_state == 2.0 and mirrored.right_state == 0.0
    jump = mirrored.jumps()[0]
    assert (jump.left, jump.right) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# tail-safe arcs: finite and flux-balanced wherever the objective is finite
# ---------------------------------------------------------------------------


def _assert_finite_profile(sol, residual_tol=None):
    """Finite boundaries, samples and residuals; samples monotone within the states."""
    prof = sol.profile
    lo, hi = sorted((prof.left_state, prof.right_state))
    assert all(math.isfinite(b) for b in sol.boundaries)
    reach = 8.0 * max(prof.coefficients)
    xs = np.sort(np.concatenate([np.linspace(-reach, reach, 801), sol.boundaries, [-math.inf, math.inf]]))
    v = prof.sample(xs)
    assert np.all(np.isfinite(v))
    assert lo <= v.min() and v.max() <= hi
    assert np.all(np.diff(v) * math.copysign(1.0, prof.right_state - prof.left_state) >= 0.0)
    residuals = [rec.rh_residual for rec in sol.jumps]
    assert all(math.isfinite(r) for r in residuals)
    if residual_tol is not None:
        scale = max(prof.coefficients) * (hi - lo)
        assert sol.converged
        assert max(map(abs, residuals), default=0.0) <= residual_tol * scale


def test_two_phase_right_tail_arc_is_finite():
    # the boundary sits at xi/a ~ 13 in the slow phase, where heat_step rounds
    # to 1 at both ends of the arc
    sol = solve_riemann(0.0, 1.0, PhasePartition((0.0, 0.98, 1.0), (1.0, 0.2)))
    _assert_finite_profile(sol, residual_tol=1e-9)


def test_two_phase_right_tail_arc_through_the_cli(tmp_path):
    config = tmp_path / "tail.cfg"
    config.write_text(
        "u_minus = 0\nu_plus = 1\nbreakpoints = [0.98]\ncoefficients = [1, 0.2]\n",
        encoding="utf-8",
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "tail_")]) == 0
    for name, columns in (("boundaries", ("xi", "residual")), ("profile", ("xi", "v"))):
        lines = (tmp_path / f"tail_{name}.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert rows
        for col in columns:
            assert all(math.isfinite(float(row[header.index(col)])) for row in rows)


@pytest.mark.parametrize("n, seed", [(64, 2), (256, 1), (1024, 0), (256, 9)])
def test_random_partition_profile_balances(n, seed):
    problem = part(n, seed)
    sol = solve_riemann(0.0, 1.0, problem.partition)
    _assert_finite_profile(sol, residual_tol=1e-9)


def _partitions(lo, hi):
    """Admissible partitions with n <= 16, coefficients log-uniform in [lo, hi]
    or zero, and a random orientation."""
    coefficient = st.one_of(
        st.just(0.0), st.floats(math.log(lo), math.log(hi)).map(math.exp)
    )
    return st.integers(0, 16).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1),
            st.lists(coefficient, min_size=n + 1, max_size=n + 1),
            st.booleans(),
        )
    )


def _solve_drawn(drawn):
    gaps, coefficients, flip = drawn
    breakpoints = tuple(np.concatenate([[0.0], np.cumsum(gaps)]).tolist())
    partition = PhasePartition(breakpoints, admissible(coefficients))
    assert validate(partition) is None
    ends = (breakpoints[-1], breakpoints[0]) if flip else (breakpoints[0], breakpoints[-1])
    return solve_riemann(*ends, partition)


@given(_partitions(0.05, 5.0))
@settings(max_examples=150, deadline=None)
def test_profile_finite_and_monotone_for_admissible_partitions(drawn):
    _assert_finite_profile(_solve_drawn(drawn))


@given(_partitions(0.2, 2.0))
@settings(max_examples=150, deadline=None)
def test_profile_balances_for_moderate_coefficients(drawn):
    _assert_finite_profile(_solve_drawn(drawn), residual_tol=1e-9)


@given(_partitions(0.05, 5.0))
@settings(max_examples=150, deadline=None)
def test_a_jump_is_bit_identical_to_interpolating_the_antiderivative(drawn):
    # jump_residuals sums A at the partition's nodes; the one-sided states are
    # nodes, so np.interp on the antiderivative table gives the same bits
    sol = _solve_drawn(drawn)
    nodes, avals = diffusion_antiderivative(sol.problem.partition)
    for rec in sol.jumps:
        expected = np.interp(rec.right, nodes, avals) - np.interp(rec.left, nodes, avals)
        assert np.float64(rec.a_jump).tobytes() == expected.tobytes()


def _record_bits(records):
    return [
        (r.boundary, r.slot, r.classification)
        + tuple(float(v).hex() for v in (r.location, r.left, r.right, r.a_jump, r.rh_residual))
        for r in records
    ]


def _has_tail_arc(profile):
    # a live arc on one side of 0 whose nearer scaled end is past TAIL_FROM
    edges = (-math.inf, *profile.boundaries, math.inf)
    return any(
        a > 0.0 and (lo / a >= TAIL_FROM or hi / a <= -TAIL_FROM)
        for a, lo, hi in zip(profile.coefficients, edges, edges[1:])
    )


def _mp_residuals(problem, profile):
    """(rh_residual, its rounding scale) at each boundary, from 50-digit end
    fluxes a du H'(t) / D at the profile's own scaled ends t = xi/a, with D
    through erfc on the side of 0 the arc lies on; a fused pair reads the
    live phases beyond it.  The scale is |[u] xi / 2| + both |fluxes|."""
    b, u, cs = profile.boundaries, profile.states, profile.coefficients
    n = len(b)
    edges = (-math.inf, *b, math.inf)
    at_lo = [mpmath.mpf(0)] * (n + 1)
    at_hi = [mpmath.mpf(0)] * (n + 1)
    with mpmath.workdps(50):
        for k, a in enumerate(cs):
            if a > 0.0:
                x, y = mpmath.mpf(edges[k + 1] / a), mpmath.mpf(edges[k] / a)
                if y >= 0:
                    d = (mpmath.erfc(y / 2) - mpmath.erfc(x / 2)) / 2
                elif x <= 0:
                    d = (mpmath.erfc(-x / 2) - mpmath.erfc(-y / 2)) / 2
                else:
                    d = (mpmath.erf(x / 2) - mpmath.erf(y / 2)) / 2
                scale = mpmath.mpf(a) * (u[k + 1] - u[k]) / (2 * mpmath.sqrt(mpmath.pi) * d)
                at_lo[k] = scale * mpmath.exp(-y * y / 4)
                at_hi[k] = scale * mpmath.exp(-x * x / 4)
        out = []
        for k in range(1, n + 1):
            left = u[k] if cs[k - 1] > 0.0 else u[k - 1]
            right = u[k] if cs[k] > 0.0 else u[k + 1]
            p = k - 2 if k > 1 and cs[k - 1] == 0.0 else k - 1
            q = k + 1 if k < n and cs[k] == 0.0 else k
            jump = mpmath.mpf(right - left) * b[k - 1] / 2
            residual = jump + (at_lo[q] - at_hi[p])
            out.append((float(residual), float(abs(jump) + abs(at_lo[q]) + abs(at_hi[p]))))
    return out


def _assert_records_match(problem, profile, records):
    expected = reference_jump_residuals(problem, profile)
    if not _has_tail_arc(profile):
        assert _record_bits(records) == _record_bits(expected)
        return
    # past TAIL_FROM the reference's exp(ln H'(t) - ln D) keeps only eps t^2/4
    # of its exponent, so the residual is held to 50-digit end fluxes instead.
    # Every flux is within eps TAIL_FROM^2 / 4 of them (the fast branch's
    # exponent below TAIL_FROM; the tail branch's few units of rounding are
    # less), and so is the residual, relative to the terms it sums
    assert [bits[:-1] for bits in _record_bits(records)] == [bits[:-1] for bits in _record_bits(expected)]
    bound = (0.25 * TAIL_FROM**2 + 64.0) * sys.float_info.epsilon
    for rec, (residual, scale) in zip(records, _mp_residuals(problem, profile)):
        assert abs(rec.rh_residual - residual) <= bound * scale


@given(_partitions(0.05, 5.0), st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=17, max_size=17))
@example(drawn=([0.5, 0.5], [0.0, 1.0], False), signs=[1.0] * 17)  # dead left edge
@example(drawn=([0.5, 0.5], [1.0, 0.0], True), signs=[-1.0] * 17)  # dead right edge
@example(drawn=([0.3, 0.4, 0.3], [1.0, 0.0, 2.0], False), signs=[1.0, -1.0] * 9)  # fused pair
@example(drawn=([0.3, 0.4, 0.3, 0.2], [0.0, 1.0, 0.0, 2.0], True), signs=[-1.0, 1.0] * 9)
# a dead run pushes the last live arcs past TAIL_FROM
@example(drawn=([1.0] * 16 + [0.0625], [0.0] * 15 + [math.e, math.exp(-2.0)], False), signs=[-1.0] * 17)
@settings(max_examples=150, deadline=None)
def test_jump_records_match_the_end_flux_loop(drawn, signs):
    # the records read from limits/flux_limits are the per-phase end-flux
    # loop's bit for bit, at the minimizer and with its slots moved by 1e-2;
    # on an arc deep in one tail, their residuals are the 50-digit ones
    sol = _solve_drawn(drawn)
    problem = sol.problem
    _assert_records_match(problem, sol.profile, sol.jumps)
    if problem.m == 0:
        return
    solved = sol.profile.mirrored() if problem.orientation_flipped else sol.profile
    x = np.array([solved.boundaries[problem.slots.index(j)] for j in range(problem.m)])
    bumped = x + 1e-2 * np.array(signs[: problem.m])
    if np.any(np.diff(bumped) <= 0.0):  # keep the order: move every slot alike
        bumped = x + 1e-2 * signs[0]
    profile = build_profile(problem, bumped)
    if problem.orientation_flipped:
        profile = profile.mirrored()
    _assert_records_match(problem, profile, jump_residuals(problem, profile))
