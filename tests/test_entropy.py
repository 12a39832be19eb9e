"""Entropy value/gradient/Hessian against hand values, finite differences,
and directly coded matching conditions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsim.continuum import DiffusionFunction, discretize
from selfsim.entropy import (
    InfeasibleBoundariesError,
    entropy_pass,
    entropy_value,
    feasible_values,
    shift_constant,
    sublevel_bounds,
)
from selfsim.optimizer import initial_guess, minimize
from selfsim.problem import PhasePartition, normalize_orientation
from selfsim.special import heat_step, heat_step_deriv, heat_step_inverse

from conftest import dense_hessian, fd_gradient, fd_hessian, feasible_point, make_problem
from entropy_reference import (
    reference_gradient,
    reference_hessian,
    reference_shifted_value,
    reference_value,
)


TWO_PHASE = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
LEFT_DEGENERATE = PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0))


def problem_of(part):
    return normalize_orientation(part.breakpoints[0], part.breakpoints[-1], part)


@pytest.mark.parametrize(
    "values, expected",
    [
        ((), False),
        ((1.0,), True),
        ((-2.0, 0.5, 3.0), True),
        ((math.nan,), False),
        ((0.0, math.nan), False),
        ((math.inf,), False),
        ((-math.inf,), False),
        ((-math.inf, 0.0), False),
        ((0.0, math.inf), False),
        ((1.0, 1.0), False),
        ((0.0, 2.0, 1.0), False),
    ],
)
def test_feasible_values_table(values, expected):
    assert feasible_values(values) is expected
    assert feasible_values(list(values)) is expected


def test_two_phase_hand_value():
    prob = problem_of(TWO_PHASE)
    xi = (0.0,)
    # -1*1*ln(1-F(0)) - 4*1*ln(F(0)-0) = ln 2 + 4 ln 2
    assert entropy_value(prob, xi) == pytest.approx(5.0 * math.log(2.0), rel=1e-15)


def test_degenerate_edge_hand_value():
    prob = problem_of(LEFT_DEGENERATE)
    xi = (1.0,)
    expected = 0.25 - math.log(1.0 - heat_step(1.0))
    assert entropy_value(prob, xi) == pytest.approx(expected, rel=1e-14)


def test_rejects_infeasible_points():
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.0))
    prob = problem_of(part)
    with pytest.raises(InfeasibleBoundariesError):
        entropy_value(prob, (0.5, 0.5))
    with pytest.raises(InfeasibleBoundariesError):
        entropy_value(prob, (1.0, -1.0))


def test_value_is_inf_where_scaled_ends_round_together():
    # two adjacent floats whose quotients by a = 1.9 round to one float: the
    # arc between them is empty, outside the domain, and the value +inf
    prob = problem_of(PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 1.9, 0.5)))
    lo = 1.95
    hi = math.nextafter(lo, math.inf)
    assert lo / 1.9 == hi / 1.9
    assert entropy_value(prob, (lo, hi)) == math.inf
    assert entropy_pass(prob, (lo, hi))[0] == math.inf  # the full pass too, without derivatives
    assert math.isfinite(entropy_value(prob, (lo, lo + 1e-3)))


def test_gradient_matches_finite_differences(rng):
    checked = 0
    while checked < 100:
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        xi = feasible_point(rng, prob)
        g = entropy_pass(prob, xi)[1]
        fd = fd_gradient(lambda v: entropy_value(prob, v), xi)
        scale = np.maximum(np.abs(g), 1.0)
        assert np.max(np.abs((np.asarray(g) - fd) / scale)) <= 1e-6
        checked += 1


def test_hessian_matches_finite_differences(rng):
    checked = 0
    while checked < 100:
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        xi = feasible_point(rng, prob)
        hd, ho = entropy_pass(prob, xi)[2:]
        H = dense_hessian(hd, ho)
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) > 0.0
        fd = fd_hessian(lambda v: entropy_value(prob, v), xi)
        scale = max(1.0, float(np.max(np.abs(H))))
        assert np.max(np.abs(H - fd)) / scale <= 1e-5
        checked += 1


def test_gradient_is_flux_mismatch_nondegenerate():
    # direct transcription of the interior matching condition for n=1
    prob = problem_of(TWO_PHASE)
    for x in (-1.3, -0.4, 0.0, 0.9):
        g = entropy_pass(prob, (x,))[1]
        # phase left of the boundary spans the kernel mass F(x/a0) - 0,
        # phase right of it spans 1 - F(x/a1)
        left = 1.0 * 1.0 * heat_step_deriv(x / 1.0) / heat_step(x / 1.0)
        right = 2.0 * 1.0 * heat_step_deriv(x / 2.0) / (1.0 - heat_step(x / 2.0))
        assert g[0] == pytest.approx(right - left, abs=1e-12)


def test_gradient_is_flux_mismatch_two_boundaries():
    part = PhasePartition((0.0, 1.0, 3.0, 4.0), (1.0, 0.5, 2.0))
    prob = problem_of(part)
    x1, x2 = -0.7, 0.6
    g = entropy_pass(prob, (x1, x2))[1]
    du = (1.0, 2.0, 1.0)
    a = (1.0, 0.5, 2.0)
    f0 = heat_step(x1 / a[0]) - 0.0
    f1 = heat_step(x2 / a[1]) - heat_step(x1 / a[1])
    f2 = 1.0 - heat_step(x2 / a[2])
    g1 = a[1] * du[1] * heat_step_deriv(x1 / a[1]) / f1 - a[0] * du[0] * heat_step_deriv(x1 / a[0]) / f0
    g2 = a[2] * du[2] * heat_step_deriv(x2 / a[2]) / f2 - a[1] * du[1] * heat_step_deriv(x2 / a[1]) / f1
    assert g[0] == pytest.approx(g1, abs=1e-12)
    assert g[1] == pytest.approx(g2, abs=1e-12)


def test_gradient_is_stefan_relation_at_degenerate_edge():
    prob = problem_of(LEFT_DEGENERATE)
    for x in (-1.0, 0.2, 1.4):
        g = entropy_pass(prob, (x,))[1]
        # quadratic edge term plus the one-sided flux of the live phase
        direct = 1.0 * x / 2.0 + 1.0 * 1.0 * heat_step_deriv(x) / (1.0 - heat_step(x))
        assert g[0] == pytest.approx(direct, abs=1e-12)


def test_gradient_is_merged_relation_at_inner_interval():
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    prob = problem_of(part)
    assert prob.m == 1
    for x in (-0.9, 0.1, 0.8):
        g = entropy_pass(prob, (x,))[1]
        left = 1.0 * 1.0 * heat_step_deriv(x / 1.0) / heat_step(x / 1.0)
        right = 2.0 * 1.0 * heat_step_deriv(x / 2.0) / (1.0 - heat_step(x / 2.0))
        direct = right - left + 1.0 * x / 2.0
        assert g[0] == pytest.approx(direct, abs=1e-12)


def test_degenerate_scalar_hessian_formula():
    prob = problem_of(LEFT_DEGENERATE)
    x = 0.7
    hd, ho = entropy_pass(prob, (x,))[2:]
    assert np.asarray(ho).size == 0
    r = heat_step_deriv(x) / (1.0 - heat_step(x))
    # scalar objective x^2/4 - ln(1 - F(x)); second derivative is
    # 1/2 + r' with r' = r^2 - (x/2) r from the kernel identity F'' = -(x/2)F'
    expected = 0.5 + r * r - 0.5 * x * r
    assert hd[0] == pytest.approx(expected, rel=1e-12)
    assert hd[0] > 0.0


def test_shifted_entropy_differs_by_constant(rng):
    for _ in range(5):
        phases = int(rng.integers(2, 7))
        prob = make_problem(rng, phases)
        const = shift_constant(prob)
        diffs = []
        for _ in range(10):
            xi = feasible_point(rng, prob)
            diffs.append(reference_shifted_value(prob, xi) - entropy_value(prob, xi))
        assert np.max(np.abs(np.asarray(diffs) - const)) <= 1e-12 * max(1.0, abs(const))


def test_shifted_entropy_same_argmin():
    prob = problem_of(TWO_PHASE)
    res = minimize(prob)
    # stationarity of E at the E1 argmin and vice versa is the same condition
    assert np.max(np.abs(entropy_pass(prob, res.x)[1])) <= 1e-9
    assert reference_shifted_value(prob, res.x) == pytest.approx(
        res.value + shift_constant(prob), rel=1e-14
    )


def test_shifted_entropy_bounded_under_refinement():
    # evaluate both entropies at the known single-kernel minimizer; the raw
    # entropy grows like log N while the shifted one stays put
    f = DiffusionFunction.from_callable(lambda u: 1.0, 0.0, 1.0)
    raw, shifted = [], []
    for N in (2, 4, 8, 16):
        part = discretize(f, N)
        prob = problem_of(part)
        xi = tuple(heat_step_inverse((k + 1.0) / N) for k in range(prob.m))
        raw.append(entropy_value(prob, xi))
        shifted.append(raw[-1] + shift_constant(prob))
    assert raw[-1] > raw[0] + 1.5  # ~ log 16 - log 2
    assert all(b > a for a, b in zip(raw, raw[1:]))
    assert max(abs(v) for v in shifted) < 0.1


def test_entropy_positive(rng):
    for _ in range(100):
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        xi = feasible_point(rng, prob)
        assert entropy_value(prob, xi) > 0.0


@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_convex_along_segments(seed, t):
    rng = np.random.default_rng(seed)
    phases = int(rng.integers(2, 7))
    prob = make_problem(rng, phases)
    x = feasible_point(rng, prob)
    y = feasible_point(rng, prob)
    if np.allclose(x, y):
        y = y + 0.3
    mid = t * x + (1.0 - t) * y
    if not feasible_values(mid):
        return
    e_mid = entropy_value(prob, mid)
    e_x = entropy_value(prob, x)
    e_y = entropy_value(prob, y)
    assert e_mid <= t * e_x + (1.0 - t) * e_y + 1e-12


def test_not_translation_invariant():
    prob = problem_of(TWO_PHASE)
    a = entropy_value(prob, (0.3,))
    b = entropy_value(prob, (0.4,))
    assert a != b


@given(
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from(["never", "maybe", "left edge", "right edge", "inner"]),
    center=st.floats(-30.0, 30.0),
    spread=st.floats(1e-6, 30.0),
)
@settings(max_examples=300, deadline=None)
def test_fused_pass_bit_identical_to_reference(seed, zeros, center, spread):
    rng = np.random.default_rng(seed)
    phases = int(rng.integers(2, 9))
    degenerate = {
        "left edge": (0,),
        "right edge": (phases - 1,),
        "inner": (int(rng.integers(1, phases - 1)),) if phases > 2 else (0,),
    }.get(zeros, zeros)
    prob = make_problem(rng, phases, degenerate)
    # positions in [center - spread, center + spread] clipped to [-30, 30],
    # in units of the smallest live coefficient: |xi / a| reaches 30
    a_min = min(a for a in prob.partition.coefficients if a > 0.0)
    lo = max(center - spread, -30.0)
    hi = min(center + spread, 30.0)
    values = a_min * np.sort(rng.uniform(lo, hi, prob.m))
    assume(feasible_values(values))
    point = tuple(values.tolist())

    value, grad, hd, ho = entropy_pass(prob, point)
    ref_hd, ref_ho = reference_hessian(prob, point)
    bits = np.float64(value).tobytes()
    assert bits == np.float64(reference_value(prob, point)).tobytes()
    assert bits == np.float64(entropy_pass(prob, point, derivatives=False)).tobytes()
    assert np.array(grad).tobytes() == reference_gradient(prob, point).tobytes()
    assert np.array(hd).tobytes() == ref_hd.tobytes()
    assert np.array(ho).tobytes() == ref_ho.tobytes()


def test_sublevel_box_contains_sublevel_points(rng):
    for _ in range(20):
        phases = int(rng.integers(2, 6))
        prob = make_problem(rng, phases)
        start = initial_guess(prob)
        c = entropy_value(prob, start)
        box = sublevel_bounds(prob, c)
        for _ in range(25):
            xi = feasible_point(rng, prob, scale=rng.uniform(0.5, 4.0))
            if entropy_value(prob, xi) <= c:
                v = np.asarray(xi)
                assert np.max(np.abs(v)) <= box.radius + 1e-12
                if v.size > 1:
                    assert np.min(np.diff(v)) >= box.gap - 1e-12


def test_sublevel_radius_monotone_in_level():
    prob = problem_of(TWO_PHASE)
    start = initial_guess(prob)
    c = entropy_value(prob, start)
    r_small = sublevel_bounds(prob, 0.5 * c).radius
    r_big = sublevel_bounds(prob, c).radius
    assert 0.0 < r_small <= r_big


@pytest.mark.parametrize(
    "part",
    [
        PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)),
        PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 0.5)),
    ],
)
def test_sublevel_scan_finds_nothing_outside_box(part):
    prob = problem_of(part)
    start = initial_guess(prob)
    c = entropy_value(prob, start)
    box = sublevel_bounds(prob, c)
    r = box.radius
    lattice = np.linspace(-3.0 * r, 3.0 * r, 31)
    if prob.m == 1:
        points = [(x,) for x in lattice]
    else:
        points = [(x, y) for x in lattice for y in lattice if x < y]
    outside = 0
    for p in points:
        if np.max(np.abs(p)) <= r:
            continue
        outside += 1
        if feasible_values(p):
            assert entropy_value(prob, p) > c
    assert outside > 0
