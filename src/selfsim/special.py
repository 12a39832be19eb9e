"""Error-function kernel shared by every profile computation.

The basic object is the increasing function

    heat_step(x) = (1 / (2 sqrt(pi))) * int_{-inf}^{x} exp(-s^2/4) ds
                 = (1 + erf(x/2)) / 2,

the self-similar shape taken by the constant-diffusivity heat equation with
unit step data; ``heat_step(x / a)`` is the same shape for diffusivity a^2.
Everything transcendental in the solver reduces to this function, its
derivative, and logarithms of its differences, so those live here once with
tail-safe branches: differences of nearly-equal tail values are computed in
log space from the ratio of their erfc values rather than by naive
subtraction, which keeps objective gradients finite far into the Gaussian
tails.  Past x = 26, where erfc underflows (and exp(x^2) overflows), the
scaled complementary error function erfcx(x) = exp(x^2) erfc(x) takes over.

Scalars use ``math.erf`` and ``math.erfc``.  erfcx has two kernels, both
for x >= 0 and both switching at x = 26 to the Laplace continued fraction:

* ``erfcx``, for one float: below 26, erfc(x) exp(x^2) with x^2 split
  exactly (Dekker), so that exp sees no rounding of x^2;
* ``erfcx_vec``, for arrays: below 26, the piecewise polynomials in
  4 / (4 + x) of S. G. Johnson's Faddeeva package, from the table that
  ``scripts/erfcx_table.py`` writes into ``_erfcx_table.py``.  numpy and
  the table are loaded on its first call, so the scalar paths never pay
  for them.

Every ratio R = H'/D of an arc [y, x], D = heat_step(x) - heat_step(y),
and every curvature of -ln D comes from one kernel, ``heat_step_ratios``.
Its fast branch is exp(ln H'(t) - ln D).  On a one-signed arc whose nearer
scaled end is past 52 (2 * 26, so that erfcx runs on its continued fraction)
both logs are about -t^2/4 and their difference keeps only eps t^2/4 of
absolute accuracy, so the tail branch takes R and the curvatures from the
continued fraction's q(s) = 1 / (sqrt(pi) erfcx(s)) - s and
rho = erfc(far) / erfc(near) instead, with no subtraction of nearly equal
numbers.  ``heat_step_tail_fraction`` gives the profile's values on such an
arc from the same q and rho.

The inverse starts from M. Giles' closed-form erfinv (single-precision
version, "Approximating the erfinv function", 2010) and is polished by
Newton.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))
_LN2 = math.log(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_CF_FROM = 26.0  # erfcx kernels switch to the continued fraction here
_CF_TERMS = 6  # within about one ulp from 26 on
TAIL_FROM = 2.0 * _CF_FROM  # tail branch of heat_step_ratios and heat_step_tail_fraction
_INF = math.inf
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
# below this quantile the inverse works in log space; above it Giles' start
# is close enough for a few Newton steps
_LOG_TAIL_BELOW = 1e-10


def _cf_tail(x):
    # q(x) = 1 / (sqrt(pi) erfcx(x)) - x without the subtraction: the Laplace
    # continued fraction (1/2) / (x + 1 / (x + (3/2) / (x + ...))), summed
    # from the bottom; converged to rounding for x >= 26, on floats or arrays
    r = x
    for k in range(_CF_TERMS, 1, -1):
        r = x + (0.5 * k) / r
    return 0.5 / r


def _erfcx_cf(x):
    # exp(x^2) erfc(x) = 1 / (sqrt(pi) (x + q(x))) for x >= 26
    return _INV_SQRT_PI / (x + _cf_tail(x))


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for x >= 0, to a relative error of a few units of 2^-52."""
    if x >= _CF_FROM:
        return _erfcx_cf(x)
    # x^2 = p + e exactly, so exp(x^2) = exp(p) (1 + e) to rounding
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    p = x * x
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return math.erfc(x) * math.exp(p) * (1.0 + e)


@functools.cache
def _erfcx_rows():
    # erfcx_vec's coefficient rows as one array, and the piece of row 0
    import numpy as np

    from ._erfcx_table import FIRST, TABLE

    return np.array(TABLE), FIRST


def erfcx_vec(x) -> np.ndarray:
    """exp(x^2) erfc(x) on a 1-d array of x >= 0; the array twin of ``erfcx``."""
    import numpy as np

    table, first = _erfcx_rows()
    x = np.asarray(x, dtype=float)
    near = np.minimum(x, _CF_FROM)
    s = 4.0 + near
    # the piece floor(400 / s); the rows' polynomials hold slightly past their ends
    rows = table.take((400.0 / s).astype(np.intp) - first, axis=0, mode="clip")
    # u = 2 y_c (x_c - x) / (4 + x), columns (x_c, 2 y_c, c_0, ..., c_6)
    u = rows[:, 1] * (rows[:, 0] - near) / s
    out = rows[:, -1] * u  # Horner, c_6 down to c_0
    for c in rows.T[-2:2:-1]:
        out += c
        out *= u
    out += rows[:, 2]
    far = x >= _CF_FROM
    if far.any():
        out[far] = _erfcx_cf(x[far])
    return out


def heat_step(x: float) -> float:
    """Cumulative Gaussian profile, increasing from 0 at -inf to 1 at +inf.

    The left tail goes through erfc so that tiny values keep full relative
    accuracy; the right tail only needs absolute accuracy.
    """
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return 0.5 * math.erfc(-0.5 * x)
    return 0.5 * (1.0 + math.erf(0.5 * x))


def heat_step_deriv(x: float) -> float:
    """d/dx of heat_step: exp(-x^2/4) / (2 sqrt(pi)); even, maximal at 0."""
    return math.exp(-0.25 * x * x - _LOG_2_SQRT_PI)


def log_heat_step_deriv(x: float) -> float:
    """log of heat_step_deriv in closed form; never under- or overflows."""
    return -0.25 * x * x - _LOG_2_SQRT_PI


def _log_erfc(t: float) -> float:
    # ln(erfc(t)) for finite t; past _CF_FROM, where erfc underflows, through erfcx
    if t < _CF_FROM:
        return math.log(math.erfc(t))
    return -t * t + math.log(_erfcx_cf(t))


def _log_flat_diff(x: float, y: float) -> float:
    # Arguments one or two floats apart: one-point rectangle at the midpoint.
    return log_heat_step_deriv(0.5 * (x + y)) + math.log(x - y)


def _log_upper_tail_diff(a: float, b: float, x: float, y: float) -> float:
    # ln((erfc(b) - erfc(a)) / 2) for 0 <= b < a.  (x, y) kept for fallback.
    log_eb = _log_erfc(b)
    if math.isinf(a):
        return log_eb - _LN2
    # s = ln(erfc(a)/erfc(b)) < 0, from erfc while it does not underflow and
    # else from well-scaled erfcx pieces; -expm1(s) is then
    # 1 - erfc(a)/erfc(b) without cancellation.
    if a < _CF_FROM:
        s = math.log(math.erfc(a) / math.erfc(b))
    else:
        s = (b * b - a * a) + math.log(erfcx(a)) - math.log(erfcx(b))
    if s >= 0.0:
        return _log_flat_diff(x, y)
    return log_eb + math.log(-math.expm1(s)) - _LN2


def log_heat_step_diff(x: float, y: float) -> float:
    """ln(heat_step(x) - heat_step(y)) for x > y, finite for all finite x > y.

    Same-sign arguments are handled entirely in log space through erfc (and
    erfcx once erfc underflows), so the result stays accurate when both
    points sit far out in one Gaussian tail; straddling arguments add two
    positive erf values and cannot cancel.
    Infinite arguments are allowed on their natural side.  Always <= 0.
    """
    if not x > y:
        raise ValueError(f"log_heat_step_diff requires x > y, got x={x!r}, y={y!r}")
    if math.isinf(x) and math.isinf(y):
        return 0.0
    a = 0.5 * x
    b = 0.5 * y
    if b >= 0.0:
        return _log_upper_tail_diff(a, b, x, y)
    if a <= 0.0:
        return _log_upper_tail_diff(-b, -a, -y, -x)
    # arguments straddle zero: a sum of two positive terms
    p = 0.5 * (math.erf(a) + math.erf(-b))
    if p <= 0.0:  # both arguments subnormal
        return _log_flat_diff(x, y)
    if p >= 1.0:
        return 0.0
    return math.log(p)


def _log_erfc_ratio(s: float, f: float, d: float, q_s: float) -> float:
    # ln(erfc(f) / erfc(s)) for 26 <= s <= f <= inf, given d = s - f and
    # q_s = q(s): (s - f)(s + f) from the Gaussian factors, which neither
    # overflows nor cancels where s^2 - f^2 would, plus ln(erfcx(f) /
    # erfcx(s)) from the continued fraction, so no step subtracts nearly
    # equal numbers.  A caller that knows s - f better than the difference
    # of the rounded s and f passes it as d
    if f == _INF:
        return -_INF
    q_f = _cf_tail(f)
    return d * (s + f) + math.log1p((d + (q_s - q_f)) / (f + q_f))


def _tail_ratios(s: float, f: float) -> tuple[float, float, float, float]:
    # (R_near, R_far, c_near, c_far) of a one-signed arc in half-scaled units
    # 26 <= s < f <= inf, with rho = erfc(f) / erfc(s)
    q = _cf_tail(s)
    d = s - f
    log_rho = _log_erfc_ratio(s, f, d, q)
    rho = math.exp(log_rho)
    spread = -math.expm1(log_rho)  # 1 - rho
    r_near = (s + q) / spread
    r_far = r_near * math.exp(d * (s + f))  # H'(far) / H'(near) = exp((s - f)(s + f))
    return r_near, r_far, r_near * (q + s * rho) / spread, r_far * (r_far + f)


def heat_step_ratios(x: float, y: float, log_d: float) -> tuple[float, float, float, float]:
    """R = H'/D at both ends of the arc x > y, and the curvatures of -ln D.

    D = heat_step(x) - heat_step(y) = exp(log_d), from ``log_heat_step_diff``.
    Returns ``(r_x, r_y, c_x, c_y)``: r_x = H'(x)/D, r_y = H'(y)/D,
    c_x = r_x (r_x + x/2) = d^2(-ln D)/dx^2 and c_y = r_y (r_y - y/2)
    = d^2(-ln D)/dy^2 (-r_x r_y is the cross derivative).  An arc with both
    scaled ends past 52 on one side of 0 takes the tail branch of the module
    docstring, which does not read ``log_d``.  A curvature at an infinite
    end is NaN.
    """
    if y >= TAIL_FROM:
        r_y, r_x, c_y, c_x = _tail_ratios(0.5 * y, 0.5 * x)
    elif x <= -TAIL_FROM:
        r_x, r_y, c_x, c_y = _tail_ratios(-0.5 * x, -0.5 * y)
    else:  # exp(log_heat_step_deriv(t) - log_d), inlined
        r_x = math.exp(-0.25 * x * x - _LOG_2_SQRT_PI - log_d)
        r_y = math.exp(-0.25 * y * y - _LOG_2_SQRT_PI - log_d)
        c_x = r_x * r_x + 0.5 * x * r_x
        c_y = r_y * r_y - 0.5 * y * r_y
    return r_x, r_y, c_x, c_y


def heat_step_tail_fraction(near: float, far: float, point: float, a: float) -> float:
    """(H(point/a) - H(near/a)) / (H(far/a) - H(near/a)) on a tail arc.

    The arc runs from ``near`` to ``far`` (``far`` may be infinite) on one
    side of 0 with |near/a| >= ``TAIL_FROM``, and ``point`` lies on it.  The
    ratio is (1 - P) / (1 - rho), with P = erfc(point/2a) / erfc(near/2a) and
    rho the same at ``far``, each taken in log space by the tail branch's
    continued fraction.  The differences near - point and near - far are
    taken before dividing by a: in the tail the fraction turns over within
    a few units of rounding of point/a, so the rounded quotients would not
    place the point on it.
    """
    if near < 0.0:  # the left tail is the mirror image of the right one
        near, far, point = -near, -far, -point
    s = 0.5 * (near / a)
    q = _cf_tail(s)
    log_p = _log_erfc_ratio(s, 0.5 * (point / a), 0.5 * ((near - point) / a), q)
    log_rho = _log_erfc_ratio(s, 0.5 * (far / a), 0.5 * ((near - far) / a), q)
    return math.expm1(log_p) / math.expm1(log_rho)


def _log_heat_step(x: float) -> float:
    # ln(heat_step(x)), accurate arbitrarily far into the left tail.
    return log_heat_step_diff(x, -math.inf)


def _inverse_log_tail(p: float) -> float:
    # Quantiles far below working precision: Newton on ln(heat_step) with an
    # asymptotic start from heat_step(x) ~ heat_step'(x) * 2/|x| as x -> -inf.
    target = math.log(p)
    t = max(-target - _LOG_2_SQRT_PI, 1.0)
    x = -2.0 * math.sqrt(t)
    for _ in range(2):
        x = -2.0 * math.sqrt(max(-target - _LOG_2_SQRT_PI + math.log(2.0 / abs(x)), 1.0))
    for _ in range(80):
        log_h = _log_heat_step(x)
        g = log_h - target
        if abs(g) <= 1e-13:
            break
        step = g / heat_step_ratios(x, -_INF, log_h)[0]  # d ln(heat_step) / dx
        if step > 5.0:
            step = 5.0
        elif step < -5.0:
            step = -5.0
        x -= step
    return x


def _erfinv_start(p: float) -> float:
    # erfinv(2p - 1) by Giles' single-precision formula, with its
    # w = -ln(1 - (2p - 1)^2) taken as -ln(4 p (1 - p)); relative error
    # ~1e-7 for w < 16, a few 1e-4 out to p = 1e-10
    w = -math.log(4.0 * p * (1.0 - p))
    if w < 5.0:
        w -= 2.5
        q = 2.81022636e-08
        for c in (3.43273939e-07, -3.5233877e-06, -4.39150654e-06, 0.00021858087,
                  -0.00125372503, -0.00417768164, 0.246640727, 1.50140941):
            q = c + q * w
    else:
        w = math.sqrt(w) - 3.0
        q = -0.000200214257
        for c in (0.000100950558, 0.00134934322, -0.00367342844, 0.00573950773,
                  -0.0076224613, 0.00943887047, 1.00167406, 2.83297682):
            q = c + q * w
    return q * (2.0 * p - 1.0)


def heat_step_inverse(p: float) -> float:
    """x such that heat_step(x) = p for 0 < p < 1 (|heat_step(x) - p| <= 1e-12).

    Safeguarded Newton from Giles' erfinv start on the left half; p > 1/2
    is solved as -heat_step_inverse(1 - p), where 1 - p is exact, and
    quantiles below ``_LOG_TAIL_BELOW`` switch to a log-space Newton, so the
    whole open interval works.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"heat_step_inverse requires 0 < p < 1, got {p!r}")
    if p > 0.5:
        return -heat_step_inverse(1.0 - p)
    if p < _LOG_TAIL_BELOW:
        return _inverse_log_tail(p)
    x = 2.0 * _erfinv_start(p)
    for _ in range(6):
        f = heat_step(x) - p
        if f == 0.0:
            break
        step = f / heat_step_deriv(x)
        if step > 1.0:  # the start is close; clamp paranoid steps
            step = 1.0
        elif step < -1.0:
            step = -1.0
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x
