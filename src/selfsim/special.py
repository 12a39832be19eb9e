"""Error-function kernel shared by every profile computation.

The basic object is the increasing function

    heat_step(x) = (1 / (2 sqrt(pi))) * int_{-inf}^{x} exp(-s^2/4) ds
                 = (1 + erf(x/2)) / 2,

the self-similar shape taken by the constant-diffusivity heat equation with
unit step data; ``heat_step(x / a)`` is the same shape for diffusivity a^2.
Everything transcendental in the solver reduces to this function, its
derivative, and logarithms of its differences, so those live here once with
tail-safe branches that never subtract nearly equal numbers, which keeps
objective gradients finite far into the Gaussian tails.  Past x = 26, where
erfc underflows (and exp(x^2) overflows), the scaled complementary error
function erfcx(x) = exp(x^2) erfc(x) takes over.

Scalars use ``math.erf`` and ``math.erfc``.  erfcx has two kernels, both
for x >= 0 and both switching at x = 26 to the Laplace continued fraction:

* ``erfcx``, for one float: below 26, erfc(x) exp(x^2) with x^2 split
  exactly (Dekker), so that exp sees no rounding of x^2;
* ``erfcx_vec``, for arrays: below 26, the piecewise polynomials in
  4 / (4 + x) of S. G. Johnson's Faddeeva package, from the table that
  ``scripts/erfcx_table.py`` writes into ``_erfcx_table.py``.  numpy and
  the table are loaded on its first call, so the scalar paths never pay
  for them.

Every arc takes one call of one kernel, ``heat_step_arc(lo, hi, a)``, for
its ln D, D = heat_step(hi/a) - heat_step(lo/a), its ratios R = H'/D at both
ends and the curvatures of -ln D.  It takes the width w = (hi - lo)/a from
the ends, so an arc a few ulps wide keeps it, and mirrors a one-signed arc
onto [n, n + w], n >= 0, across which ln H' falls by z = w (2n + w) / 4.
Up to z = 0.3, ln D = ln H'(n) + ln(w M) with
M = int_0^1 exp(-(nw/2) t - (w^2/4) t^2) dt from a 7-point Gauss-Legendre
rule; past it D = (erfc(s) - erfc(f)) / 2, s = n/2, f = s + w/2, whose
terms are then 26 % apart, with erfc(f) times exp((f - s)(f + s) - z) to
take the rounding of f out (erfc(s) exp(-z) erfcx(f) / erfcx(s) past
f = 26).  A straddling arc adds two positive erf values.  The ratios are
exp(ln H'(t) - ln D).

``heat_step_delta(n, w)`` = D / H'(n) is w M from a 10-point rule while
z <= 1.5, past it the difference of the tails beyond n and n + w,
``heat_step_rest`` = sqrt(pi) erfcx(f) exp(-z), which are e^-z apart (at
the 7-point rule's z = 0.3 that difference is up to 10 eps off).  The
profile reads its values from it, and so does ``heat_step_arc`` on a
one-signed arc whose near end n is past 52 (2 * 26, so that erfcx runs on
its continued fraction).  There ln H'(t) and ln D are both about -t^2/4,
and their difference would keep only eps t^2/4 of absolute accuracy, so
the tail reads ln D = -s^2 - ln(2 sqrt(pi)) + ln delta, R = 1/delta at the
near end and e^-z/delta at the far one.  Its near curvature is
R (R - s) = R^2 (1 - s delta); off the rule 1 - s delta is taken as
q/(s + q) + s rest(n, w), with q(s) = 1/(sqrt(pi) erfcx(s)) - s from the
continued fraction, a sum of positives because rest(n, 0) = 1/(s + q) past
52.

The inverse ``heat_step_inverse(p)`` starts from M. Giles' closed-form
erfinv (single-precision version, "Approximating the erfinv function",
2010) and is polished by Newton.  Below p = 1e-10 it hands ln p to
``log_heat_step_inverse``, which takes the quantile by its logarithm, so
that any finite ln p < 0 is in reach, far below the smallest float (the
certified box of ``entropy.sublevel_bounds`` needs such quantiles).  That
is Newton on ln heat_step, whose values ``heat_step_arc`` keeps arbitrarily
far into the left tail, from the asymptotic start heat_step(x) ~
heat_step'(x) * 2/|x|, stopped once |ln heat_step(x) - ln p| is within
max(1e-13, 4 eps |ln p|): a few units of rounding of ln p, which a fixed
1e-13 undercuts far enough out.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))
_LN2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI
_CF_FROM = 26.0  # erfcx kernels switch to the continued fraction here
_CF_TERMS = 6  # within about one ulp from 26 on
TAIL_FROM = 2.0 * _CF_FROM  # heat_step_arc reads arcs from delta past here
_INF = math.inf
_MIN_NORMAL = sys.float_info.min
_EXP_ZERO = -1075.0 * _LN2  # math.exp rounds anything below this to 0
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_RULE_UP_TO = 0.3  # heat_step_arc's rule covers z up to here
_DELTA_RULE_UP_TO = 1.5  # and heat_step_delta's
# below this quantile the inverse works in log space; above it Giles' start
# is close enough for a few Newton steps
_LOG_TAIL_BELOW = 1e-10
_LN_TAIL_BELOW = math.log(_LOG_TAIL_BELOW)
_EPS = sys.float_info.epsilon


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

    from ._erfcx_table import COLUMNS, FIRST, TABLE

    return np.array(TABLE.split(), dtype=float).reshape(-1, COLUMNS), FIRST


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


# Gauss-Legendre rules on [0, 1] as (node, weight): heat_step_arc's 7 points, within
# about an ulp of w M while z <= 0.3, and heat_step_delta's 10, within 2 eps to z = 1.5
_RULE = ((0.025446043828620736, 0.06474248308443485), (0.12923440720030277, 0.13985269574463832),
         (0.2970774243113014, 0.19091502525255946), (0.5, 0.2089795918367347),
         (0.7029225756886985, 0.19091502525255946), (0.8707655927996972, 0.13985269574463832),
         (0.9745539561713793, 0.06474248308443485))
_DELTA_RULE = ((0.01304673574141414, 0.03333567215434407), (0.06746831665550775, 0.0747256745752903),
               (0.1602952158504878, 0.10954318125799102), (0.2833023029353764, 0.13463335965499817),
               (0.4255628305091844, 0.14776211235737644))
_DELTA_RULE += tuple((1.0 - t, c) for t, c in reversed(_DELTA_RULE))  # symmetric about 1/2


def _rule(n: float, w: float, rule=_RULE) -> float:
    # w M = D / H'(n) on [n, n + w]
    b1 = 0.5 * n * w
    b2 = 0.25 * w * w
    total = 0.0
    for t, c in rule:
        total = total + c * math.exp(-t * (b1 + b2 * t))
    return w * total


def heat_step_rest(n: float, w: float) -> float:
    """delta(n, inf) - delta(n, w) = sqrt(pi) erfcx((n + w)/2) exp(-z), to its own relative accuracy."""
    return _SQRT_PI * erfcx(0.5 * (n + w)) * math.exp(-0.5 * w * (n + 0.5 * w))  # z = 0 at w = 0, at any n


def heat_step_delta_by_rule(n: float, w: float) -> bool:
    """Whether ``heat_step_delta`` takes delta(n, w) by its rule: z <= 1.5."""
    return 0.25 * w * (2.0 * n + w) <= _DELTA_RULE_UP_TO


def heat_step_delta(n: float, w: float) -> float:
    """delta(n, w) = D / H'(n), D = heat_step(n + w) - heat_step(n), for n >= 0, 0 <= w <= inf; within 4 eps."""
    if heat_step_delta_by_rule(n, w):
        return _rule(n, w, _DELTA_RULE)
    return heat_step_rest(n, 0.0) - heat_step_rest(n, w)


@functools.cache
def _delta_nodes():  # heat_step_delta's rule as (10, 1) columns: weights, -t/2 and -t^2/4
    import numpy as np
    t, c = np.array(_DELTA_RULE).T[:, :, None]
    return c, -0.5 * t, -0.25 * t * t


def heat_step_delta_vec(n, w, full, by_rule) -> np.ndarray:
    """``heat_step_delta`` on 1-d arrays of points 0 <= w <= width on arcs [n, n + width].

    full is delta(n, inf).  Where by_rule = ``heat_step_delta_by_rule(n, width)`` is true or 1, the rule
    takes delta; elsewhere full - ``heat_step_rest``, within a few eps of full, or -rest where full is 0.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # inf only where exp(-z) is 0
        out = full - _SQRT_PI * erfcx_vec(0.5 * (n + w)) * np.exp(-0.25 * w * (n + n + w))
    near = (by_rule != 0).nonzero()[0]
    if near.size:  # all nodes in one exp, and a sum, not BLAS, which may start threads
        c, a, b = _delta_nodes()  # exp(-t (b1 + b2 t)), b1 = n w / 2, b2 = w^2 / 4
        n, w = n.take(near), w.take(near)
        out[near] = w * np.add.reduce(c * np.exp(a * (n * w) + b * (w * w)), axis=0)
    return out


def heat_step_arc(lo: float, hi: float, a: float) -> tuple[float, float, float, float, float]:
    """ln D and R = H'/D at both ends of an arc, and the curvatures of -ln D.

    The arc runs from y = lo/a to x = hi/a, lo < hi (either may be
    infinite), a > 0, and D = heat_step(x) - heat_step(y); it is read as in
    the module docstring.  Returns ``(ln D, r_x, r_y, c_x, c_y)``:
    r_x = H'(x)/D, r_y = H'(y)/D, c_x = r_x (r_x + x/2) = d^2(-ln D)/dx^2
    and c_y = r_y (r_y - y/2) = d^2(-ln D)/dy^2 (-r_x r_y is the cross
    derivative), each ratio and curvature 0 at an infinite end.  A width
    (hi - lo)/a that underflows to 0 gives ln D = -inf and infinite ratios.
    """
    if not lo < hi:
        raise ValueError(f"heat_step_arc requires lo < hi, got lo={lo!r}, hi={hi!r}")
    x = hi / a
    y = lo / a
    w = (hi - lo) / a
    if w < _MIN_NORMAL:  # both ends within 2^-969 of 0, where H' is H'(0): D = w H'(0)
        if w == 0.0:
            return -_INF, _INF, _INF, _INF, _INF
        r = 1.0 / w  # inf once it overflows
        return math.log(w) - _LOG_2_SQRT_PI, r, r, r * r, r * r
    if y >= 0.0 or x <= 0.0:  # mirrored onto [n, n + w]
        n = y if y >= 0.0 else -x
        s = 0.5 * n
        z = 0.25 * w * (2.0 * n + w)
        if n >= TAIL_FROM:  # D = H'(n) delta, with no subtraction of logs
            delta = heat_step_delta(n, w)
            log_d = -s * s - _LOG_2_SQRT_PI + math.log(delta)
            r_near = 1.0 / delta
            if heat_step_delta_by_rule(n, w):
                c_near = r_near * (r_near - s)
            else:  # R (R (1 - s delta)), 1 - s delta a sum of positives: rest(n, 0) = 1 / (s + q)
                q = _cf_tail(s)
                c_near = r_near * (q * r_near / (s + q) + s * (r_near * heat_step_rest(n, w)))
            r_far = r_near * math.exp(-z)  # H'(n + w) / H'(n)
            c_far = r_far * (r_far + s + 0.5 * w) if r_far else 0.0
            if y >= 0.0:
                return log_d, r_far, r_near, c_far, c_near
            return log_d, r_near, r_far, c_near, c_far
        if z <= _RULE_UP_TO:  # D = w H'(n) M, M = int_0^1 exp(-(nw/2) t - (w^2/4) t^2) dt
            log_d = -s * s - _LOG_2_SQRT_PI + math.log(_rule(n, w))
        else:  # D = (erfc(s) - erfc(f)) / 2, f = s + w/2
            f = s + 0.5 * w
            e_s = math.erfc(s)
            if f < _CF_FROM:  # exp((f - s)(f + s) - z) undoes the rounding of f
                e_f = math.erfc(f) * math.exp((f - s) * (f + s) - z)
            elif -z > _EXP_ZERO:
                e_f = e_s * math.exp(-z) * erfcx(f) / erfcx(s)
            else:  # exp(-z) rounds to 0, at an infinite far end too
                e_f = 0.0
            log_d = math.log(e_s - e_f) - _LN2
    else:  # the arc straddles 0: a sum of two positive terms
        p = 0.5 * (math.erf(0.5 * x) + math.erf(-0.5 * y))
        if p <= 0.5:
            log_d = math.log(p)
        else:  # near p = 1, ln p from its complement, which erfc keeps to full precision
            log_d = math.log1p(-0.5 * (math.erfc(0.5 * x) + math.erfc(-0.5 * y)))
    r_x = math.exp(-0.25 * x * x - _LOG_2_SQRT_PI - log_d)
    r_y = math.exp(-0.25 * y * y - _LOG_2_SQRT_PI - log_d)
    c_x = r_x * r_x + 0.5 * x * r_x if r_x else 0.0
    c_y = r_y * r_y - 0.5 * y * r_y if r_y else 0.0
    return log_d, r_x, r_y, c_x, c_y


def log_heat_step_inverse(log_p: float) -> float:
    """x such that ln heat_step(x) = log_p, for finite log_p < 0.

    Above ln ``_LOG_TAIL_BELOW`` this is ``heat_step_inverse(exp(log_p))``;
    below it the log-space Newton of the module docstring.
    """
    if log_p > _LN_TAIL_BELOW:
        return heat_step_inverse(math.exp(log_p))
    if not log_p > -_INF:
        raise ValueError(f"log_heat_step_inverse requires -inf < log_p < 0, got {log_p!r}")
    tol = max(1e-13, 4.0 * _EPS * -log_p)
    t = max(-log_p - _LOG_2_SQRT_PI, 1.0)
    x = -2.0 * math.sqrt(t)
    for _ in range(2):
        x = -2.0 * math.sqrt(max(-log_p - _LOG_2_SQRT_PI + math.log(2.0 / abs(x)), 1.0))
    for _ in range(80):
        # ln(heat_step(x)), accurate arbitrarily far into the left tail, and
        # its derivative
        log_h, r = heat_step_arc(-_INF, x, 1.0)[:2]
        g = log_h - log_p
        if abs(g) <= tol:
            break
        x -= g / r
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

    Newton from Giles' erfinv start on the left half; p > 1/2 is solved as
    -heat_step_inverse(1 - p), where 1 - p is exact, and quantiles below
    ``_LOG_TAIL_BELOW`` go to ``log_heat_step_inverse``, so the whole open
    interval works.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"heat_step_inverse requires 0 < p < 1, got {p!r}")
    if p > 0.5:
        return -heat_step_inverse(1.0 - p)
    if p < _LOG_TAIL_BELOW:
        return log_heat_step_inverse(math.log(p))
    x = 2.0 * _erfinv_start(p)
    for _ in range(6):
        f = heat_step(x) - p
        if f == 0.0:
            break
        step = f / heat_step_deriv(x)
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x
