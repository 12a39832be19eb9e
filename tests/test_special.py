"""Checks for the smoothed-step kernel, its arc kernel ``heat_step_arc`` and
the erf family under them."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import selfsim.special
from selfsim._erfcx_table import FIRST
from selfsim.special import (
    TAIL_FROM,
    _erfcx_rows,
    erfcx,
    erfcx_vec,
    heat_step,
    heat_step_arc,
    heat_step_delta,
    heat_step_delta_by_rule,
    heat_step_delta_vec,
    heat_step_deriv,
    heat_step_inverse,
    log_heat_step_inverse,
)


def mp_step(x):
    """Independent high-precision evaluation of the defining integral."""
    with mpmath.workdps(40):
        if x == mpmath.inf:
            return mpmath.mpf(1)
        if x == -mpmath.inf:
            return mpmath.mpf(0)
        return mpmath.quad(
            lambda s: mpmath.exp(-s * s / 4) / (2 * mpmath.sqrt(mpmath.pi)),
            [-mpmath.inf, mpmath.mpf(x)],
        )


def test_endpoint_values():
    assert heat_step(float("-inf")) == 0.0
    assert heat_step(float("inf")) == 1.0
    assert heat_step(0.0) == 0.5
    assert math.isnan(heat_step(float("nan")))


def test_value_at_two_against_quadrature():
    oracle = float(mp_step(2.0))
    assert abs(heat_step(2.0) - oracle) <= 1e-13
    assert abs(heat_step(2.0) - 0.9213503964) < 1e-10  # 10-digit truncation


@pytest.mark.parametrize("x", [-40.0, -25.0, -8.0, -1.0, 0.3, 5.0, 17.0, 40.0])
def test_tail_relative_accuracy(x):
    with mpmath.workdps(40):
        # erfc keeps full relative precision in the deep tail
        oracle = mpmath.erfc(-mpmath.mpf(x) / 2) / 2
        rel = abs((mpmath.mpf(heat_step(x)) - oracle) / oracle)
    assert rel <= 1e-14


def test_deriv_peak_value():
    assert heat_step_deriv(0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-15)


@pytest.mark.parametrize("x", [0.1, 0.9, 2.2, 3.7, 4.9])
def test_deriv_even(x):
    assert heat_step_deriv(x) == heat_step_deriv(-x)


@pytest.mark.parametrize("x", np.linspace(-5, 5, 11).tolist())
def test_deriv_is_the_derivative(x):
    h = 1e-5
    fd = (heat_step(x + h) - heat_step(x - h)) / (2 * h)
    assert fd == pytest.approx(heat_step_deriv(x), abs=5e-11)


@pytest.mark.parametrize("x", np.linspace(-6, 6, 13).tolist())
def test_second_derivative_identity(x):
    # d/dx of the kernel derivative equals -(x/2) times the derivative itself
    h = 1e-5
    fd = (heat_step_deriv(x + h) - heat_step_deriv(x - h)) / (2 * h)
    assert fd == pytest.approx(-0.5 * x * heat_step_deriv(x), abs=5e-11)


def _log_d(lo, hi, a=1.0):
    return heat_step_arc(lo, hi, a)[0]


def test_log_diff_whole_line():
    assert _log_d(-math.inf, math.inf) == 0.0


def test_log_diff_symmetric_interval():
    expected = math.log(2.0 * heat_step(1.0) - 1.0)
    assert _log_d(-1.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_log_diff_tail_quadrature_oracle():
    # direct quadrature of the kernel mass on [29, 30] (~1e-93 in size)
    with mpmath.workdps(120):
        diff = mpmath.quad(
            lambda s: mpmath.exp(-s * s / 4) / (2 * mpmath.sqrt(mpmath.pi)),
            [29, 30],
        )
        oracle = float(mpmath.log(diff))
    assert _log_d(29.0, 30.0) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("x, y", [(30.0, 29.0), (45.0, 44.0), (-29.0, -30.0), (120.0, 119.0)])
def test_log_diff_deep_tail_oracle(x, y):
    with mpmath.workdps(200):
        # map to the positive tail by even symmetry, then difference erfc,
        # which keeps full relative precision there
        xx, yy = (x, y) if y >= 0 else (-y, -x)
        diff = (mpmath.erfc(mpmath.mpf(yy) / 2) - mpmath.erfc(mpmath.mpf(xx) / 2)) / 2
        oracle = float(mpmath.log(diff))
    assert _log_d(y, x) == pytest.approx(oracle, rel=1e-12)


_TINY = 2.2250738585072014e-308  # the smallest normal float


def _mp_log_erfc(s):
    if s < 1e8:
        return mpmath.log(mpmath.erfc(s))
    # the asymptotic series, whose next term is below 1e-63 here
    t = 1 / (2 * s * s)
    return -s * s - mpmath.log(s * mpmath.sqrt(mpmath.pi)) + mpmath.log1p(-t + 3 * t * t - 15 * t**3)


def _mp_log_d(lo, hi, a):
    """ln D at 60 digits or more.  A one-signed arc is taken at its exact
    ends lo/a and hi/a, D = (erfc(s) - erfc(f)) / 2 on its mirror image
    0 <= s < f, with the digits that difference cancels added; a straddling
    arc at the rounded quotients, which its erf sum reads."""
    y, x = lo / a, hi / a
    if y < 0.0 < x:
        with mpmath.workdps(60):
            ends = [mpmath.mpf(abs(t)) / 2 for t in (x, y)]
            d = sum(mpmath.erf(e) for e in ends) / 2
            if d < 0.5:
                return mpmath.log(d)
            return mpmath.log1p(-sum(mpmath.exp(_mp_log_erfc(e)) for e in ends) / 2)
    near = lo if y >= 0.0 else -hi
    with mpmath.workdps(30):
        s = mpmath.mpf(near) / (2 * mpmath.mpf(a))
        half_width = (mpmath.mpf(hi) - mpmath.mpf(lo)) / (2 * mpmath.mpf(a))
        z = half_width * (2 * s + half_width)  # ln(H'(near) / H'(far))
    if z > 200:  # erfc(f) / erfc(s) < e^-200: ln D = ln(erfc(s) / 2) to 60 digits
        with mpmath.workdps(60):
            s = mpmath.mpf(near) / (2 * mpmath.mpf(a))
            return _mp_log_erfc(s) - mpmath.log(2)
    extra = int(mpmath.log10(1 + s * s)) + max(0, int(-mpmath.log10(z)))
    with mpmath.workdps(60 + extra):
        s = mpmath.mpf(near) / (2 * mpmath.mpf(a))
        f = s + (mpmath.mpf(hi) - mpmath.mpf(lo)) / (2 * mpmath.mpf(a))
        return mpmath.log((mpmath.erfc(s) - mpmath.erfc(f)) / 2)


def _assert_log_d_within(lo, hi, a, ulps):
    out = _log_d(lo, hi, a)
    oracle = _mp_log_d(lo, hi, a)
    if _TINY <= abs(oracle) <= sys.float_info.max:  # a normal float
        assert abs((out - oracle) / oracle) <= ulps * sys.float_info.epsilon, (lo, hi, a, out)


@given(
    st.just(math.inf) | st.floats(0.0, 60.0, exclude_min=True),
    st.just(-math.inf) | st.floats(-60.0, 0.0, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_log_diff_straddling_within_4_eps(x, y):
    # D = (erf(x/2) + erf(-y/2)) / 2 = 1 - (erfc(x/2) + erfc(-y/2)) / 2; ln of
    # the erf sum rounds ln D to 0 long before the erfc form runs out of digits
    _assert_log_d_within(y, x, 1.0, 4.0)


def test_log_diff_flat_fallback_within_2_eps():
    # arcs one to three ulps wide: ln D = ln H'(y) + ln(w M) from the width,
    # where erfc(x/2) / erfc(y/2) mostly rounds to 1
    rng = np.random.default_rng(0)
    for _ in range(2000):
        y = math.exp(rng.uniform(math.log(1e-8), math.log(10.0)))
        x = y
        for _ in range(rng.integers(1, 4)):
            x = math.nextafter(x, math.inf)
        out = _log_d(y, x)
        with mpmath.workdps(60):
            xx, yy = mpmath.mpf(x) / 2, mpmath.mpf(y) / 2
            oracle = mpmath.log((mpmath.erfc(yy) - mpmath.erfc(xx)) / 2)
            assert abs((out - oracle) / oracle) <= 2.0 * sys.float_info.epsilon, (x, y, out)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (60.0, 60.0 + 1e-9),  # a narrow arc past the erfcx switch
        (0.0, 1e-6),  # a narrow arc at 0
        (-(60.0 + 1e-9), -60.0),
        (29.0, 29.5),  # ln H' falls by more than the rule's range: the erfc difference
        (56.0, 56.02),  # past TAIL_FROM: delta
    ],
)
def test_one_signed_arcs_within_4_eps(lo, hi):
    _assert_log_d_within(lo, hi, 1.0, 4.0)


_END_MAGNITUDES = st.floats(1e-300, 1e300)


@st.composite
def _arcs(draw):
    """(lo, hi, a): ends over +-[1e-300, 1e300] and +-inf, a in [1e-3, 1e3],
    from two drawn ends or from one end and a width of 1 to 1e3 ulps or a
    relative width down to 1e-16."""
    a = draw(st.floats(1e-3, 1e3))
    end = draw(st.sampled_from([-1.0, 1.0])) * draw(_END_MAGNITUDES)
    how = draw(st.sampled_from(["two ends", "infinite", "ulps", "relative"]))
    if how == "two ends":
        other = draw(st.sampled_from([-1.0, 1.0])) * draw(_END_MAGNITUDES)
    elif how == "infinite":
        other = draw(st.sampled_from([-math.inf, math.inf]))
    elif how == "ulps":
        other = end + draw(st.integers(1, 1000)) * math.ulp(end)
    else:
        other = end * (1.0 + draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-16.0, 0.0)))
    lo, hi = min(end, other), max(end, other)
    assume(lo < hi and (hi - lo) / a >= _TINY)
    return lo, hi, a


@given(_arcs())
@settings(max_examples=150, deadline=None)
def test_arc_within_4_eps_of_mpmath(arc):
    # one-signed and straddling arcs over the whole float range; every one
    # returns, and ln D is within 4 eps of 60 digits wherever that is a
    # normal float
    lo, hi, a = arc
    assert len(heat_step_arc(lo, hi, a)) == 5
    _assert_log_d_within(lo, hi, a, 4.0)


@pytest.mark.parametrize("x, y", [(-164.0, -1e19), (1e19, 164.0)])
def test_arc_with_its_far_end_past_the_tail_ratio_range(x, y):
    # far / near > 2 / eps, where ln(erfc(far) / erfc(near)) must be -inf
    # without a log1p(-1); the near end's ratio is H'(near) / D with
    # D = erfc(82) / 2
    log_d, r_x, r_y, c_x, c_y = heat_step_arc(y, x, 1.0)
    r_near, r_far, c_far = (r_x, r_y, c_y) if x < 0.0 else (r_y, r_x, c_x)
    with mpmath.workdps(60):
        d = mpmath.erfc(82) / 2
        assert log_d == pytest.approx(float(mpmath.log(d)), rel=1e-14)
        oracle = mpmath.exp(-mpmath.mpf(164) ** 2 / 4) / (2 * mpmath.sqrt(mpmath.pi) * d)
    assert r_near == pytest.approx(float(oracle), rel=1e-13)
    assert r_far == 0.0 and c_far == 0.0


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (1.0, math.inf), (-math.inf, -60.0), (60.0, math.inf),
                                    (-math.inf, math.inf)])
def test_ratio_and_curvature_are_0_at_an_infinite_end(lo, hi):
    _, r_x, r_y, c_x, c_y = heat_step_arc(lo, hi, 1.0)
    for end, r, c in ((hi, r_x, c_x), (lo, r_y, c_y)):
        if math.isinf(end):
            assert r == 0.0 and c == 0.0
        else:
            assert r > 0.0 and c > 0.0


def _mp_sqrt_pi_erfcx(x):
    # sqrt(pi) erfcx(x) at the working precision; past x = 1e7 by its
    # asymptotic series, whose next term is below 1e-56 there
    if x > 1e7:
        t = 1 / (2 * x * x)
        return (1 - t + 3 * t * t - 15 * t**3) / x
    return mpmath.sqrt(mpmath.pi) * mpmath.exp(x * x) * mpmath.erfc(x)


def _mp_delta(n, w):
    """delta(n, w) = sqrt(pi) (erfcx(s) - erfcx(f) e^-z), s = n/2, f = s + w/2,
    z = (f - s)(f + s), to 60 digits: with the digits of s / w, of s^2 and
    those the difference cancels added, or, once z > 200, sqrt(pi) erfcx(s)
    alone."""
    with mpmath.workdps(30):
        s = mpmath.mpf(n) / 2
        z = mpmath.mpf(w) / 2 * (2 * s + mpmath.mpf(w) / 2)
        digits = 60 + int(mpmath.log10((1 + s / w) * (1 + min(s, 1e7) ** 2) / min(z, 1)))
    with mpmath.workdps(digits):
        s = mpmath.mpf(n) / 2
        if z > 200:
            return _mp_sqrt_pi_erfcx(s)
        f = s + mpmath.mpf(w) / 2
        return _mp_sqrt_pi_erfcx(s) - _mp_sqrt_pi_erfcx(f) * mpmath.exp(-(f - s) * (f + s))


def _width_at(n, z):
    # the w >= 0 with w (2n + w) / 4 = z
    return 4.0 * z / (n + math.hypot(n, 2.0 * math.sqrt(z)))


@st.composite
def _delta_args(draw):
    """n in {0} and [1e-300, 1e300]; w in [1e-300, 1e300] and inf, or from a
    fall z = w (2n + w) / 4 in [0.01, 30] around the rules' ends."""
    n = draw(st.just(0.0) | st.floats(1e-300, 1e300))
    if draw(st.booleans()):
        return n, draw(st.floats(1e-300, 1e300) | st.just(math.inf))
    w = _width_at(n, draw(st.floats(0.01, 30.0)))
    assume(w > 0.0)
    return n, w


@given(_delta_args())
@example(arg=(0.0, math.inf))
@example(arg=(1e8, 1e300))
@example(arg=(1e-300, 1e-300))
@example(arg=(1e200, 1e-200))  # z = 0.5, where n * n overflows
# on both sides of the 7-point rule's end z = 0.3, where the erfcx difference
# would scale its terms' rounding by 3.9, and of the 10-point rule's z = 1.5
@example(arg=(0.0, _width_at(0.0, 0.3)))
@example(arg=(0.0, _width_at(0.0, 0.3000001)))
@example(arg=(31.18473003745852, _width_at(31.18473003745852, 0.2999999)))
@example(arg=(31.18473003745852, _width_at(31.18473003745852, 0.3000001)))
@example(arg=(5.541772301260344, _width_at(5.541772301260344, 0.311)))
@example(arg=(0.0, _width_at(0.0, 1.5)))
@example(arg=(2.0, _width_at(2.0, 1.5)))
@example(arg=(2.0, _width_at(2.0, 1.5000001)))
@example(arg=(1e8, _width_at(1e8, 1.4999999)))
@example(arg=(1e8, _width_at(1e8, 1.5000001)))
@settings(max_examples=200, deadline=None)
def test_delta_within_4_eps_of_mpmath(arg):
    n, w = arg
    want = _mp_delta(n, w)
    got = heat_step_delta(n, w)
    assert abs((got - want) / want) <= 4.0 * sys.float_info.epsilon, (n, w, got)
    full, by_rule = heat_step_delta(n, math.inf), heat_step_delta_by_rule(n, w)
    (got,) = heat_step_delta_vec(np.array([n]), np.array([w]), np.array([full]), np.array([by_rule]))
    assert abs((got - want) / want) <= 4.0 * sys.float_info.epsilon, (n, w, got)


def _mp_tail_arc(lo, hi):
    """(R, c) at the near end lo and at the far end hi of the arc [lo, hi],
    52 <= lo < hi <= inf at a = 1, and its fall z: R_near = 1 / delta,
    R_far = e^-z / delta, c_near = R_near^2 (1 - s delta) and c_far = R_far
    (R_far + hi/2), with delta as in ``_mp_delta`` and the digits that
    1 - s delta cancels, 2 log10 s, added twice over.  Past z = 2000, where
    e^-z R_near is below the smallest float, the far end's values are 0 and
    z is given as 0."""
    with mpmath.workdps(30):
        digits = 60 + 4 * int(mpmath.log10(lo))
        z = (mpmath.mpf(hi) - lo) * (mpmath.mpf(hi) + lo) / 4
    with mpmath.workdps(digits):
        s = mpmath.mpf(lo) / 2
        if z > 2000:
            delta = _mp_sqrt_pi_erfcx(s)
            r_near, r_far, c_far, z = 1 / delta, 0, 0, 0
        else:
            f = mpmath.mpf(hi) / 2
            z = (f - s) * (f + s)
            delta = _mp_sqrt_pi_erfcx(s) - _mp_sqrt_pi_erfcx(f) * mpmath.exp(-z)
            r_near = 1 / delta
            r_far = mpmath.exp(-z) * r_near
            c_far = r_far * (r_far + f)
        return (r_near, r_far, r_near * r_near * (1 - s * delta), c_far), float(z)


# bounds in eps, and past the near ratio in (1 + z) eps: the worst of
# 13 000 draws, 2.0, 1.8, 3.9 and 4.0, with a margin of about 2
TAIL_R_NEAR_EPS, TAIL_R_FAR_EPS, TAIL_C_NEAR_EPS, TAIL_C_FAR_EPS = 4.0, 4.0, 8.0, 8.0


@st.composite
def _tail_arcs(draw):
    """[lo, hi] with lo in [52, 1e300] and hi = inf, or hi from a fall
    z in [1e-3, 1e2] and at least one ulp past lo."""
    lo = draw(st.floats(TAIL_FROM, 1e300))
    if draw(st.booleans()):
        return lo, math.inf
    return lo, max(lo + _width_at(lo, draw(st.floats(1e-3, 1e2))), math.nextafter(lo, math.inf))


@given(_tail_arcs(), st.booleans())
@example(arc=(52.0, math.inf), flip=False)
@example(arc=(1e300, math.inf), flip=True)
@example(arc=(60.0, 60.0 + _width_at(60.0, 1.5)), flip=False)  # the rule's end
@example(arc=(60.0, 60.0 + _width_at(60.0, 1.5000001)), flip=True)
@example(arc=(2e8, 2e8 + _width_at(2e8, 30.0)), flip=True)
@settings(max_examples=150, deadline=None)
def test_tail_ratios_and_curvatures_match_mpmath(arc, flip):
    # past TAIL_FROM; R at the far end and both curvatures take e^-z, which
    # turns the rounding of z into about z eps, so they are held to (1 + z) units
    lo, hi = arc
    want, z = _mp_tail_arc(lo, hi)
    _, r_x, r_y, c_x, c_y = heat_step_arc(-hi, -lo, 1.0) if flip else heat_step_arc(lo, hi, 1.0)
    got = (r_x, r_y, c_x, c_y) if flip else (r_y, r_x, c_y, c_x)
    for name, g, w, units in zip(("r_near", "r_far", "c_near", "c_far"), got, want,
                                 (TAIL_R_NEAR_EPS, TAIL_R_FAR_EPS, TAIL_C_NEAR_EPS, TAIL_C_FAR_EPS)):
        error = abs(g - w) / max(w, _TINY)
        assert error <= (units if name == "r_near" else units * (1.0 + z)) * sys.float_info.epsilon, (name, g)


def test_log_diff_rejects_bad_order():
    with pytest.raises(ValueError):
        heat_step_arc(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        heat_step_arc(3.0, -2.0, 1.0)


def test_a_width_that_underflows_to_0_is_empty():
    # (hi - lo) / a rounds to 0: ln D = -inf, not log(0)
    assert heat_step_arc(0.0, 5e-324, 2.0) == (-math.inf,) + (math.inf,) * 4


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-310), (-5e-324, 5e-324), (1e-300, 1e-300 + 2e-316)])
def test_a_subnormal_width_is_read_at_0(lo, hi):
    # D = w H'(0) to rounding; the ratios 1/w overflow to inf, not an error
    log_d, r_x, r_y, c_x, c_y = heat_step_arc(lo, hi, 1.0)
    w = hi - lo
    assert log_d == pytest.approx(float(mpmath.log(mpmath.mpf(w) / (2 * mpmath.sqrt(mpmath.pi)))), rel=1e-15)
    assert r_x == r_y == 1.0 / w and c_x == c_y == math.inf


@given(st.floats(-39.0, 39.0), st.floats(0.001, 2.0))
@settings(max_examples=200, deadline=None)
def test_log_diff_consistency(y, width):
    x = y + width
    out = _log_d(y, x)
    assert out <= 0.0
    direct = heat_step(x) - heat_step(y)
    if direct > 1e-280:
        assert math.exp(out) == pytest.approx(direct, rel=1e-12)


@given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
@settings(max_examples=200, deadline=None)
def test_monotone_and_symmetric(x, y):
    lo, hi = min(x, y), max(x, y)
    assert heat_step(lo) <= heat_step(hi)
    # strictness in the values saturates in double precision once the
    # argument passes ~11.8; the log-difference stays finite (and hence
    # strictly orders the values) over the whole range
    if hi - lo > 1e-9:
        if max(abs(lo), abs(hi)) <= 11.0:
            assert heat_step(lo) < heat_step(hi)
        assert math.isfinite(_log_d(lo, hi))
    assert abs(heat_step(-x) - (1.0 - heat_step(x))) <= 1e-14


def test_inverse_center():
    assert heat_step_inverse(0.5) == 0.0


def test_inverse_round_trip():
    assert heat_step_inverse(heat_step(1.7)) == pytest.approx(1.7, abs=1e-10)


def test_inverse_of_pinned_value():
    assert heat_step_inverse(0.9213503964) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize(
    "p", [1e-300, 1e-150, 1e-15, 9.9e-11, 1e-10, 1e-8, 1e-6, 0.25, 0.75, 1.0 - 1e-12]
)
def test_inverse_residual(p):
    x = heat_step_inverse(p)
    assert heat_step(x) == pytest.approx(p, rel=1e-11, abs=1e-320)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_inverse_rejects_outside_unit_interval(p):
    with pytest.raises(ValueError):
        heat_step_inverse(p)


def test_tail_inverse_stops_at_the_rounding_of_ln_p(monkeypatch):
    # below p ~ 1e-220 a fixed 1e-13 on |ln H(x) - ln p| lies under the
    # rounding of ln p, and the Newton loop ran to its cap of 80 steps
    calls = [0]

    def counting(lo, hi, a):
        calls[0] += 1
        return heat_step_arc(lo, hi, a)

    monkeypatch.setattr(selfsim.special, "heat_step_arc", counting)
    worst = 0
    for p in np.geomspace(5e-324, 1e-10, 2000).tolist():
        calls[0] = 0
        x = heat_step_inverse(p)
        worst = max(worst, calls[0])
        log_h = heat_step_arc(-math.inf, x, 1.0)[0]
        assert abs(log_h - math.log(p)) <= max(1e-13, 4.0 * EPS * -math.log(p)), p
    assert worst <= 5


@pytest.mark.parametrize("log_p", [-30.0, -1e3, -1e6, -1e20, -1e300, -sys.float_info.max])
def test_log_inverse_reaches_quantiles_below_the_smallest_float(log_p):
    x = log_heat_step_inverse(log_p)
    assert math.isfinite(x)
    assert heat_step_arc(-math.inf, x, 1.0)[0] == pytest.approx(log_p, rel=4.0 * EPS, abs=1e-13)


def test_log_inverse_above_the_tail_is_the_plain_inverse():
    for p in (2e-10, 1e-6, 0.25, 0.5, 0.9):
        assert log_heat_step_inverse(math.log(p)) == heat_step_inverse(math.exp(math.log(p)))


@pytest.mark.parametrize("log_p", [0.0, 1.0, -math.inf, math.nan])
def test_log_inverse_rejects_outside_its_domain(log_p):
    with pytest.raises(ValueError):
        log_heat_step_inverse(log_p)


# ---------------------------------------------------------------------------
# the erf family against 40-digit mpmath
# ---------------------------------------------------------------------------

EPS = 2.0**-52  # one unit in the last place of 1.0
ROOT = Path(__file__).resolve().parents[1]


def _max_relative_error(got, xs, exact) -> float:
    """max |got - exact| / |exact| over the points, exact at 40 digits, in units of EPS."""
    worst = 0.0
    with mpmath.workdps(40):
        for g, x in zip(got, xs):
            ref = exact(mpmath.mpf(float(x)))
            worst = max(worst, float(abs((mpmath.mpf(float(g)) - ref) / ref)))
    return worst / EPS


def _erfcx_points() -> np.ndarray:
    rng = np.random.default_rng(7)
    edges = 400.0 / np.arange(14, 101) - 4.0  # where the table changes piece
    return np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 40.0, 1601),
                rng.uniform(0.0, 40.0, 2000),
                edges,
                np.nextafter(edges, -np.inf)[1:],
                np.nextafter(edges, np.inf),
                [np.nextafter(26.0, 0.0), 26.0, np.nextafter(26.0, 30.0)],  # the switch to the fraction
                np.geomspace(1e-300, 1e6, 400),
            ]
        )
    )


def _mp_erfcx(x):
    return mpmath.erfc(x) * mpmath.exp(x * x)


def test_scalar_erfcx_within_4_ulp():
    xs = _erfcx_points()
    assert _max_relative_error([erfcx(float(x)) for x in xs], xs, _mp_erfcx) <= 4.0


def test_array_erfcx_within_4_ulp():
    xs = _erfcx_points()
    got = erfcx_vec(xs)
    assert got.shape == xs.shape
    assert _max_relative_error(got, xs, _mp_erfcx) <= 4.0


def test_erfcx_limits():
    assert erfcx(0.0) == 1.0 and erfcx(math.inf) == 0.0
    np.testing.assert_array_equal(erfcx_vec(np.array([0.0, math.inf])), [1.0, 0.0])


def test_erfc_and_erf_within_4_ulp():
    # the scalar paths take both from the math module; erfc only where it is
    # a normal double (it leaves them near 26.5), erf over the whole range
    rng = np.random.default_rng(8)
    xs = np.unique(np.concatenate([np.linspace(-40.0, 26.0, 1321), rng.uniform(-40.0, 26.0, 1000)]))
    assert _max_relative_error([math.erfc(float(x)) for x in xs], xs, mpmath.erfc) <= 4.0
    xs = np.concatenate([xs[xs != 0.0], np.geomspace(1e-300, 1e6, 400)])
    assert _max_relative_error([math.erf(float(x)) for x in xs], xs, mpmath.erf) <= 4.0


def _table_generator():
    spec = importlib.util.spec_from_file_location("erfcx_table", ROOT / "scripts" / "erfcx_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_erfcx_table_matches_its_generator():
    generator = _table_generator()
    assert generator.FIRST == FIRST
    rows = _erfcx_rows()[0]
    assert len(rows) == generator.LAST - generator.FIRST + 1
    for j in (generator.FIRST, 56, generator.LAST):  # first, middle and last piece
        regenerated = generator.piece(j)
        assert [v.hex() for v in regenerated] == [float(v).hex() for v in rows[j - FIRST]]
