"""Tabulated-diffusion limit: discretization, the profile functional, EL residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import solve_riemann
from selfsim.continuum import (
    DiffusionFunction,
    InverseProfile,
    _cell_data,
    _interp,
    _linspace,
    convergence_study,
    discretize,
    euler_lagrange_residual,
    minimize_variational_cost,
    variational_cost,
)
from selfsim.problem import validate
from selfsim.special import heat_step_inverse, log_heat_step_deriv

from conftest import fd_hessian

UNIT = DiffusionFunction.from_callable(lambda u: 1.0, 0.0, 1.0)
LINEAR = DiffusionFunction.from_callable(lambda u: 1.0 + u, 0.0, 1.0)
RAMP = DiffusionFunction.from_callable(lambda u: max(0.0, 2.0 * u - 1.0), 0.0, 1.0)


def variational_cost_kernel_form(f: DiffusionFunction, profile: InverseProfile) -> float:
    """The same functional before the kernel's square is expanded.

    Per nondegenerate cell: -a^2 ln( H'(xi_mid / a) * slope ) du, with the
    quadratic position term only on degenerate cells.  Differs from
    ``variational_cost`` by exactly ln(2 sqrt(pi)) * sum_{a>0} a^2 du — the
    kernel's normalization prefactor — and nothing else.
    """
    _, xi, du, gap, a = _cell_data(f, profile)
    mid = 0.5 * (xi[:-1] + xi[1:])
    total = 0.0
    for j in range(du.size):
        if a[j] > 0.0:
            log_slope = math.log(gap[j] / du[j])
            total -= a[j] ** 2 * (log_heat_step_deriv(mid[j] / a[j]) + log_slope) * du[j]
        else:
            total += 0.25 * mid[j] * mid[j] * du[j]
    return total


def _exact_heat_inverse(u):
    return np.array([heat_step_inverse(v) for v in np.atleast_1d(u)])


def _affine_profile(n):
    w = np.linspace(0.0, 1.0, n + 1)
    return InverseProfile(states=tuple(w), positions=tuple(w))


# ---------------------------------------------------------------------------
# tabulated diffusion and its discretization
# ---------------------------------------------------------------------------


def test_diffusion_function_validation():
    with pytest.raises(ValueError, match="at least two"):
        DiffusionFunction(states=(0.0,), values=(1.0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        DiffusionFunction(states=(0.0, 0.0, 1.0), values=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        DiffusionFunction(states=(0.0, 1.0), values=(1.0, -0.5))
    with pytest.raises(ValueError, match="finite"):
        DiffusionFunction(states=(0.0, math.inf), values=(1.0, 1.0))


def test_diffusion_function_interpolates():
    f = DiffusionFunction(states=(0.0, 1.0, 2.0), values=(0.0, 2.0, 2.0))
    assert f(0.5) == 1.0
    assert f(1.7) == 2.0
    assert f.lo == 0.0 and f.hi == 2.0


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e300, 1e300),
    hi=st.floats(-1e300, 1e300),
    num=st.integers(2, 1025),
)
def test_linspace_is_numpy_bit_for_bit(lo, hi, num):
    assert np.array(_linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes()


def test_linspace_takes_numpys_subnormal_branch():
    # (hi - lo) / (num - 1) rounds to 0: numpy scales by delta after dividing
    for lo, hi, num in [(0.0, 5e-324, 3), (0.0, 1e-322, 1025), (-5e-324, 5e-324, 7)]:
        assert np.array(_linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(2, 1025),
    seed=st.integers(0, 2**32 - 1),
    values=st.sampled_from(["distinct", "repeated", "infinite"]),
    extra=st.lists(st.floats(allow_nan=False), max_size=20),
)
def test_interp_is_numpy_bit_for_bit(nodes, seed, values, extra):
    rng = np.random.default_rng(seed)
    xp = np.cumsum(rng.uniform(1e-3, 1.0, nodes)) + rng.uniform(-10.0, 10.0)
    fp = rng.normal(size=nodes)
    if values != "distinct":  # equal neighbours, as in a table's zero band
        same = rng.random(nodes - 1) < 0.5
        fp[1:][same] = fp[:-1][same]
    if values == "infinite":
        fp[rng.random(nodes) < 0.2] = rng.choice([math.inf, -math.inf])
    xs = np.concatenate((
        xp,  # every node, the two ends among them
        xp[:-1] + rng.random(nodes - 1) * np.diff(xp),  # inside each interval
        [xp[0] - 1.0, xp[-1] + 1.0, -math.inf, math.inf],  # out of range
        extra,
    ))
    xp_t, fp_t = tuple(xp.tolist()), tuple(fp.tolist())
    got = np.array([_interp(x, xp_t, fp_t) for x in xs.tolist()])
    assert got.tobytes() == np.interp(xs, xp, fp).tobytes()


def test_discretize_midpoint_rule():
    part = discretize(LINEAR, 2)
    assert part.breakpoints == (0.0, 0.5, 1.0)
    assert part.coefficients == (1.25, 1.75)


def test_discretize_jitters_equal_neighbors():
    part = discretize(UNIT, 4)
    assert validate(part) is None
    assert all(abs(c - 1.0) <= 1e-11 for c in part.coefficients)
    # and the jittered partition still solves to the plain heat profile
    sol = solve_riemann(0.0, 1.0, part)
    exact = _exact_heat_inverse(np.array([0.2, 0.5, 0.8]))
    got = [sol.profile.sample(np.array([x]))[0] for x in exact]
    np.testing.assert_allclose(got, [0.2, 0.5, 0.8], atol=1e-6)


def test_discretize_merges_zero_cells():
    f = DiffusionFunction.from_callable(lambda u: max(0.0, u - 0.5), 0.0, 1.0)
    part = discretize(f, 4)
    assert part.breakpoints == (0.0, 0.5, 0.75, 1.0)
    assert part.coefficients == (0.0, 0.125, 0.375)
    assert validate(part) is None


def test_discretize_merges_interior_zero_band():
    f = DiffusionFunction(
        states=(0.0, 0.4, 0.45, 0.55, 0.6, 1.0), values=(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    )
    part = discretize(f, 10)
    assert validate(part) is None
    zeros = [k for k, c in enumerate(part.coefficients) if c == 0.0]
    assert len(zeros) == 1
    k = zeros[0]
    assert part.breakpoints[k] == pytest.approx(0.4)
    assert part.breakpoints[k + 1] == pytest.approx(0.6)


@pytest.mark.parametrize(
    "fn, cells",
    [(lambda u: max(0.0, u - 0.5) ** 2, 128), (lambda u: u * u, 256)],
    ids=["dead-band-squared", "squared"],
)
def test_smoothly_vanishing_coefficient_discretizes_and_balances(fn, cells):
    # the live cells next to the zero of a(u) sit 4 to 5 orders below the
    # largest coefficient (a_1 = 3.4e-5 for u^2 at 256 cells): validation
    # takes them, and the solve meets every interface balance
    part = discretize(DiffusionFunction.from_callable(fn, 0.0, 1.0), cells)
    assert min(c for c in part.coefficients if c > 0.0) < 1e-4 * max(part.coefficients)
    sol = solve_riemann(0.0, 1.0, part)
    assert sol.converged
    assert max(abs(rec.rh_residual) for rec in sol.jumps) <= 1e-9


def test_discretize_needs_a_cell():
    with pytest.raises(ValueError):
        discretize(UNIT, 0)


# ---------------------------------------------------------------------------
# the profile functional
# ---------------------------------------------------------------------------


def test_cost_of_affine_profile_closed_form():
    # slope term vanishes for a == 1 and xi' == 1; the quadratic term is the
    # midpoint rule for int u^2/4, off the exact 1/12 by h^2/48
    for n in (10, 400):
        h = 1.0 / n
        got = variational_cost(UNIT, _affine_profile(n))
        assert got == pytest.approx(1.0 / 12.0 - h * h / 48.0, rel=1e-13)
    assert abs(variational_cost(UNIT, _affine_profile(400)) - 1.0 / 12.0) <= 1e-6


def test_cost_scaling_identity(rng):
    # doubling xi adds -ln 2 * sum a^2 du and scales the quadratic term by 4
    w = np.linspace(0.0, 1.0, 33)
    steps = np.abs(rng.normal(size=33)) + 0.01
    xi = np.cumsum(steps)
    xi -= xi.mean()
    prof = InverseProfile(states=tuple(w), positions=tuple(xi))
    doubled = InverseProfile(states=tuple(w), positions=tuple(2.0 * xi))
    du = np.diff(w)
    mid = 0.5 * (xi[:-1] + xi[1:])
    a = np.asarray(LINEAR(0.5 * (w[:-1] + w[1:])))
    expected = -math.log(2.0) * float(np.sum(a**2 * du)) + 0.75 * float(np.sum(mid * mid * du))
    got = variational_cost(LINEAR, doubled) - variational_cost(LINEAR, prof)
    assert got == pytest.approx(expected, rel=1e-12)


def test_cost_rejects_flat_nondegenerate_cell():
    w = (0.0, 0.5, 1.0)
    prof = InverseProfile(states=w, positions=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="flat on a nondegenerate cell"):
        variational_cost(UNIT, prof)


def test_cost_allows_flat_degenerate_cell():
    # the ramp's a = 0 band may (and at the minimizer, does) collapse in xi
    prof = InverseProfile(states=(0.0, 0.5, 1.0), positions=(-0.3, -0.3, 0.9))
    value = variational_cost(RAMP, prof)
    assert math.isfinite(value)


def test_kernel_form_differs_by_normalization_constant(rng):
    # expanding the squared kernel turns -a^2 ln(H'(mid/a) xi') du into the
    # quadratic-plus-log form and releases a constant ln(2 sqrt(pi)) sum a^2 du
    w = np.linspace(0.0, 1.0, 21)
    du = np.diff(w)
    a = np.asarray(LINEAR(0.5 * (w[:-1] + w[1:])))
    constant = math.log(2.0 * math.sqrt(math.pi)) * float(np.sum(a**2 * du))
    for _ in range(10):
        steps = np.abs(rng.normal(size=21)) + 0.05
        xi = np.cumsum(steps)
        xi -= xi[10]
        prof = InverseProfile(states=tuple(w), positions=tuple(xi))
        diff = variational_cost_kernel_form(LINEAR, prof) - variational_cost(LINEAR, prof)
        assert diff == pytest.approx(constant, rel=1e-12)


def test_cost_is_convex_in_positions(rng):
    w = np.linspace(0.0, 1.0, 9)

    def cost_of(x):
        return variational_cost(LINEAR, InverseProfile(states=tuple(w), positions=tuple(x)))

    for _ in range(5):
        xi = np.cumsum(np.abs(rng.normal(size=9)) + 0.2)
        xi -= xi.mean()
        hess = fd_hessian(cost_of, xi)
        eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        assert np.all(eigs > 0.0)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def test_residual_of_affine_profile_is_position_over_two():
    prof = _affine_profile(8)
    res = euler_lagrange_residual(UNIT, prof)
    w = np.array(prof.states)
    assert math.isnan(res[0]) and math.isnan(res[-1])
    np.testing.assert_allclose(res[1:-1], 0.5 * w[1:-1], rtol=0, atol=1e-14)


def test_residual_marks_degenerate_cells():
    prof = InverseProfile(states=(0.0, 0.5, 1.0), positions=(-0.3, -0.3, 0.9))
    res = euler_lagrange_residual(RAMP, prof)
    assert np.all(np.isnan(res))  # single interior node touches the a=0 cell


def test_residual_of_exact_inverse_is_second_order():
    sups = []
    for n in (50, 100, 200, 400):
        w = np.linspace(0.0, 1.0, n + 1)
        xi = np.where(
            (w > 0.0) & (w < 1.0),
            [heat_step_inverse(u) if 0.0 < u < 1.0 else 0.0 for u in w],
            np.where(w <= 0.0, -40.0, 40.0),
        )
        prof = InverseProfile(states=tuple(w), positions=tuple(xi))
        res = euler_lagrange_residual(UNIT, prof)
        keep = np.isfinite(res) & (w >= 0.05) & (w <= 0.95)
        sups.append(float(np.max(np.abs(res[keep]))))
    assert sups[-1] <= 5e-4
    for coarse, fine in zip(sups, sups[1:]):
        assert coarse / fine >= 2.5


def test_residual_at_discrete_minimizer_shrinks():
    # the outermost interior nodes carry an O(1)-looking boundary layer that
    # drains only slowly; the bulk residual is already small at N=100
    full = []
    for n in (4, 8, 16, 32):
        m = minimize_variational_cost(UNIT, n)
        assert m.converged
        res = euler_lagrange_residual(UNIT, m.profile)
        full.append(float(np.nanmax(np.abs(res))))
    assert all(a > b for a, b in zip(full, full[1:]))
    m = minimize_variational_cost(UNIT, 100)
    res = euler_lagrange_residual(UNIT, m.profile)
    idx = np.where(np.isfinite(res))[0]
    bulk = res[idx[1:-1]]
    assert float(np.max(np.abs(bulk))) <= 0.05


# ---------------------------------------------------------------------------
# direct minimization of the functional
# ---------------------------------------------------------------------------


def test_minimize_cost_recovers_heat_inverse():
    m = minimize_variational_cost(UNIT, 200)
    assert m.converged
    w = np.array(m.profile.states)
    xi = np.array(m.profile.positions)
    mask = (w >= 0.1) & (w <= 0.9)
    exact = _exact_heat_inverse(w[mask])
    assert float(np.max(np.abs(xi[mask] - exact))) <= 1e-3


def test_minimize_cost_approaches_kernel_normalization():
    # as the grid refines, the minimum drifts to -ln(2 sqrt(pi)) * sum a^2 du;
    # for a == 1 on [0,1] that is just -ln(2 sqrt(pi))
    m = minimize_variational_cost(UNIT, 200)
    assert abs(m.cost + math.log(2.0 * math.sqrt(math.pi))) <= 0.01


def test_minimized_profile_solves_selfsimilar_ode():
    # invert xi(u) back to u(xi) and check (a^2 u')' = -xi u' / 2 by
    # nonuniform central differences; the defect shrinks at second order
    sups = []
    for n in (50, 100, 200):
        m = minimize_variational_cost(UNIT, n)
        xi = np.array(m.profile.positions)
        u = np.array(m.profile.states)
        lo, hi = int(0.1 * n), int(0.9 * n)
        worst = 0.0
        for i in range(max(1, lo), min(n, hi)):
            h0 = xi[i] - xi[i - 1]
            h1 = xi[i + 1] - xi[i]
            du = (u[i + 1] - u[i - 1]) / (h0 + h1)
            ddu = 2.0 * ((u[i + 1] - u[i]) / h1 - (u[i] - u[i - 1]) / h0) / (h0 + h1)
            worst = max(worst, abs(ddu + 0.5 * xi[i] * du))
        sups.append(worst)
    assert sups[-1] <= 1e-4
    for coarse, fine in zip(sups, sups[1:]):
        assert coarse / fine >= 2.5


def _banded_table(seed):
    # a(u) = 0.6 + 0.4 sin(2 pi (u + phase)) on [0, 1], zero on a seeded band
    # [center - halfwidth, center + halfwidth], tabulated at 65 points
    rng = np.random.default_rng(seed)
    phase, center, halfwidth = rng.uniform(0.0, 1.0), rng.uniform(0.35, 0.65), rng.uniform(0.04, 0.1)
    u = np.linspace(0.0, 1.0, 65)
    a = np.where(np.abs(u - center) <= halfwidth, 0.0, 0.6 + 0.4 * np.sin(2.0 * np.pi * (u + phase)))
    return DiffusionFunction(states=tuple(u.tolist()), values=tuple(a.tolist()))


@pytest.mark.parametrize("cells", [32, 128])
def test_minimize_cost_converges_across_a_zero_band(cells):
    # the nodes of the band's dead cells are one unknown, so the band is an
    # exact flat run; as free nodes their gap >= 0 constraints were active at
    # the minimum and Newton stalled at max_iters with |g| ~ 0.1
    f = _banded_table(1)
    m = minimize_variational_cost(f, cells)
    assert m.converged
    w = np.linspace(f.lo, f.hi, cells + 1)
    dead = np.flatnonzero(f(0.5 * (w[:-1] + w[1:])) == 0.0)
    assert dead.size > 0
    xi = np.array(m.profile.positions)
    band = xi[np.concatenate((dead, dead + 1))]
    assert np.all(band == band[0])


def test_minimize_cost_rejects_bad_input():
    with pytest.raises(ValueError):
        minimize_variational_cost(UNIT, 0)
    dead = DiffusionFunction(states=(0.0, 1.0), values=(0.0, 0.0))
    with pytest.raises(ValueError, match="vanishes identically"):
        minimize_variational_cost(dead, 8)


@pytest.mark.parametrize("f", [UNIT, DiffusionFunction(states=(0.0, 1.0), values=(0.5, 2.0))])
def test_minimize_cost_rejects_one_cell(f):
    # one cell pins only its midpoint, so J falls without bound as the gap
    # grows; Newton used to run to max_iters and return converged=False
    with pytest.raises(ValueError, match="at least two cells"):
        minimize_variational_cost(f, 1)
    assert minimize_variational_cost(f, 2).converged


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------


def test_study_heat_converges_to_exact_inverse():
    rows = convergence_study(UNIT, [2, 4, 8, 16, 32])
    grid = np.array(rows[0].inverse.states)
    exact = _exact_heat_inverse(grid)
    dists = [float(np.max(np.abs(np.array(r.inverse.positions) - exact))) for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.05


def test_study_self_convergence_factors():
    rows = convergence_study(LINEAR, [4, 8, 16, 32, 64])
    dists = [r.distance_to_finest for r in rows]
    assert dists[-1] == 0.0
    for coarse, fine in zip(dists[:-2], dists[1:-1]):
        assert coarse / fine >= 1.5


def test_study_shifted_objective_converges():
    rows = convergence_study(LINEAR, [4, 8, 16, 32, 64])
    vals = [r.shifted_entropy for r in rows]
    gaps = [abs(v - vals[-1]) for v in vals[:-1]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # and for constant diffusion the shifted objective sits at zero
    rows_unit = convergence_study(UNIT, [2, 4, 8])
    assert all(abs(r.shifted_entropy) <= 1e-9 for r in rows_unit)


def test_study_degenerate_band_maps_to_one_location():
    rows = convergence_study(RAMP, [8, 16, 32, 64])
    for row in rows:
        assert row.partition.coefficients[0] == 0.0
        assert row.partition.breakpoints[1] == pytest.approx(0.5)
    fronts = [r.boundaries[0] for r in rows]
    gaps = [abs(f - fronts[-1]) for f in fronts[:-1]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert max(gaps) <= 0.01


def test_study_requires_increasing_counts():
    with pytest.raises(ValueError, match="increasing"):
        convergence_study(UNIT, [4, 4])
    with pytest.raises(ValueError, match="increasing"):
        convergence_study(UNIT, [8, 4])
    with pytest.raises(ValueError):
        convergence_study(UNIT, [])


# ---------------------------------------------------------------------------
# inverse-profile container
# ---------------------------------------------------------------------------


def test_inverse_profile_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        InverseProfile(states=(0.0, 0.0, 1.0), positions=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        InverseProfile(states=(0.0, 0.5, 1.0), positions=(0.0, -0.1, 1.0))
    with pytest.raises(ValueError, match="finite"):
        InverseProfile(states=(0.0, 1.0), positions=(0.0, math.nan))
    prof = InverseProfile(states=(0.0, 0.5, 1.0), positions=(-1.0, -1.0, 1.0))
    assert prof.cells() == 2
