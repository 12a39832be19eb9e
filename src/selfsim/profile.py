"""Self-similar profiles and their jump diagnostics.

A solved problem yields v(xi), xi = x / sqrt(t), and a profile stores only
what determines it: the nominal boundary positions xi_1 <= ... <= xi_n
(fused pairs repeated), the states u_0..u_{n+1} and the coefficients
a_0..a_n.  Phase k spans [xi_k, xi_{k+1}] with xi_0 = -inf, xi_{n+1} = +inf.
A live phase (a_k > 0) is the error-function arc

    v(xi) = u_k + (u_{k+1} - u_k) * (H(xi/a_k) - H(xi_k/a_k)) / D_k,
    D_k = H(xi_{k+1}/a_k) - H(xi_k/a_k),    H = heat_step,

and a dead phase (a_k = 0) is a jump from u_k to u_{k+1}: at xi_1 on the
left edge, at xi_n on the right edge, at its fused position inside, and at 0
when it is the only phase.  Values, one-sided limits, fluxes, jumps and the
mirror image are all derived from those three tuples through one cached
table with a row per phase, whose ln D_k and end ratios come from one
``special.heat_step_arc`` call per live phase; ``jump_residuals`` reads its
balance from the one-sided ``limits`` and ``flux_limits``.

``sample`` takes every arc value in one pass, in complement form, from the
tail ratio R_k(s) = (1 - H(s)) / D_k = erfcx(s/2) exp(-s^2/4 - ln D_k) / 2
(s >= 0): a point at t = xi/a_k >= 0 is anchored at the arc's right end,
v = u_{k+1} - du (R_k(t) - R_k(xi_{k+1}/a_k)), and a point at t < 0 at its
left end by the mirror image, v = u_k + du (R_k(-t) - R_k(-xi_k/a_k)), so
no arc underflows; ln D_k and the anchors R_k(|end|/a_k) are the table's.
The exponent -s^2/4 - ln D_k keeps only eps s^2/4 of absolute accuracy, so
an arc whose nearer scaled end is past ``special.TAIL_FROM`` (52), flagged
``deep`` in the table, takes ``special.heat_step_tail_fraction`` from that
end instead, point by point.  The one-point ``limits`` does the same on
arcs with both scaled ends on one side of 0, and takes plain heat_step
differences, which cannot cancel there, on the one arc that may straddle 0.
Each arc is clipped to its own state interval.  numpy is loaded by
``sample`` alone; the CLI writes its profile grids point by point through
``limits``, on ``_linspace``, numpy's ``linspace`` in Python floats bit for
bit, so a solve runs without it.  ``continuum`` takes its grids from
``_linspace`` too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .problem import RiemannProblem, diffusion_antiderivative
from .special import (
    TAIL_FROM,
    erfcx,
    erfcx_vec,
    heat_step,
    heat_step_arc,
    heat_step_deriv,
    heat_step_tail_fraction,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

_INF = math.inf


# t * t / 4 stays finite up to here; the ratio is 0 long before, so the
# array form squares no larger t (numpy would warn of the overflow, which
# Python floats take silently to inf)
_SQUARE_CAP = 2.0**511


def _tail_ratio(t: float, log_norm: float) -> float:
    # (1 - H(t)) / D for t >= 0, with D = exp(log_norm)
    return 0.5 * erfcx(0.5 * t) * math.exp(-0.25 * t * t - log_norm)


def _tail_ratio_vec(t: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    import numpy as np

    t_sq = np.minimum(t, _SQUARE_CAP)
    return 0.5 * erfcx_vec(0.5 * t) * np.exp(-0.25 * t_sq * t_sq - log_norm)


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """np.linspace(lo, hi, num) for num >= 2, as Python floats, bit for bit."""
    lo, hi = float(lo), float(hi)
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # numpy's subnormal branch
        points = [i / div * delta + lo for i in range(num)]
    else:
        points = [i * step + lo for i in range(num)]
    points[-1] = hi
    return points


class _Arc(NamedTuple):
    # one phase of a profile; a dead phase has scale 1, slope 0 and zero
    # ratios, and pivots at its jump
    lo: float  # xi_k
    hi: float  # xi_{k+1}
    scale: float  # a_k
    log_norm: float  # ln D_k
    r_lo: float  # H'/D_k at lo / a_k
    r_hi: float  # and at hi / a_k
    anchor_lo: float  # R_k(|lo| / a_k), 0 on a deep arc
    anchor_hi: float  # R_k(|hi| / a_k)
    pivot: float  # points left of it are anchored at lo, the others at hi
    slope: float  # u_{k+1} - u_k
    deep: bool  # both scaled ends past TAIL_FROM on one side of 0


class JumpPoint(NamedTuple):
    location: float
    left: float
    right: float


class _ProfileFields(NamedTuple):
    boundaries: tuple[float, ...]  # nominal xi_1..xi_n, fused pairs repeated
    states: tuple[float, ...]  # u_0..u_{n+1}, in the caller's order
    coefficients: tuple[float, ...]  # a_0..a_n


class SelfSimilarProfile(_ProfileFields):
    """v(xi) as boundaries, states and coefficients; phase k is [xi_k, xi_{k+1})."""

    # no __slots__: the instance dict holds the cached table

    @cached_property
    def _table(self) -> tuple[_Arc, ...]:
        # one row per phase; the cache lives in the instance dict, so ==,
        # hash and repr still see the three fields
        b, u = self.boundaries, self.states
        edges = (-_INF, *b, _INF)
        rows = []
        for k, a in enumerate(self.coefficients):
            lo, hi = edges[k], edges[k + 1]
            if a > 0.0:
                log_norm, r_hi, r_lo = heat_step_arc(lo, hi, a)[:3]
                x, y = hi / a, lo / a
                deep = y >= TAIL_FROM or x <= -TAIL_FROM
                if deep:  # no anchors: the values take the tail fraction
                    at_lo = at_hi = 0.0
                else:  # at |end|: erfcx overflows at a negative argument
                    at_lo, at_hi = _tail_ratio(abs(y), log_norm), _tail_ratio(abs(x), log_norm)
                rows.append(_Arc(lo, hi, a, log_norm, r_lo, r_hi, at_lo, at_hi, 0.0, u[k + 1] - u[k], deep))
            else:  # the jump sits at xi_1 on the left edge, else at xi_k
                pivot = b[max(k - 1, 0)] if b else 0.0
                rows.append(_Arc(lo, hi, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, pivot, 0.0, False))
        return tuple(rows)

    def _sides(self, i: int, j: int) -> tuple[float, float]:
        # the states on either side of a line where phase i ends and phase j begins
        u, cs = self.states, self.coefficients
        return (u[i + 1] if cs[i] > 0.0 else u[i]), (u[j] if cs[j] > 0.0 else u[j + 1])

    def _flux(self, k: int, xi: float) -> float:
        # a^2 v' = a du R(xi/a) in phase k, R = H'/D; zero where a vanishes.
        # At an arc end R is the kernel's.  Inside an arc that straddles 0,
        # D is not small and R = H'(t)/D; inside a one-signed arc R is
        # carried from the end nearer 0 by H'(t)/H'(end), so that no two
        # logs of about -t^2/4 are subtracted
        a = self.coefficients[k]
        if a == 0.0:
            return 0.0
        arc = self._table[k]
        lo, hi = arc.lo, arc.hi
        if xi == hi:
            r = arc.r_hi
        elif xi == lo:
            r = arc.r_lo
        elif lo < 0.0 < hi:
            r = heat_step_deriv(xi / a) * math.exp(-arc.log_norm)
        else:  # (end - t)(end + t) from differences of xi, as in the values
            end, r_end = (lo, arc.r_lo) if lo >= 0.0 else (hi, arc.r_hi)
            r = r_end * math.exp(0.25 * ((end - xi) / a) * ((end + xi) / a))
        return a * arc.slope * r

    def jumps(self) -> tuple[JumpPoint, ...]:
        u = self.states
        return tuple(
            JumpPoint(arc.pivot, u[k], u[k + 1])
            for k, (a, arc) in enumerate(zip(self.coefficients, self._table))
            if a == 0.0
        )

    def _phases_at(self, xi: float) -> tuple[int, int]:
        # the phases left and right of xi: i < j on a boundary line, else i == j
        if math.isnan(xi):
            raise ValueError("xi must not be NaN")
        return bisect_left(self.boundaries, xi), bisect_right(self.boundaries, xi)

    def limits(self, xi: float) -> tuple[float, float]:
        """One-sided values (left limit, right limit) at xi.

        On a boundary line both are the exact states there, so a continuous
        boundary never reads as a jump; inside a phase they coincide.
        """
        i, j = self._phases_at(xi)
        if i < j:
            return self._sides(i, j)
        if self.coefficients[i] == 0.0:  # a constant tail, or the frozen step
            u, loc = self.states, self._table[i].pivot
            return (u[i] if xi <= loc else u[i + 1]), (u[i] if xi < loc else u[i + 1])
        v = self._value(i, xi)
        return v, v

    def _value(self, k: int, xi: float) -> float:
        """v at one point of live phase k; ``sample`` is the array form.

        An arc that straddles 0 takes plain heat_step differences, which
        cannot cancel there, so a single arc over the whole line is exactly
        u_0 + (u_1 - u_0) H(xi/a).
        """
        u0, u1 = self.states[k], self.states[k + 1]
        arc = self._table[k]
        a = arc.scale
        x, y, t = arc.hi / a, arc.lo / a, xi / a
        du = arc.slope
        if arc.deep:  # from the end nearer 0
            if y > 0.0:
                v = u0 + du * heat_step_tail_fraction(arc.lo, arc.hi, xi, a)
            else:
                v = u1 - du * heat_step_tail_fraction(arc.hi, arc.lo, xi, a)
        elif y < 0.0 < x:
            f_lo = heat_step(y)
            v = u0 + du / (heat_step(x) - f_lo) * (heat_step(t) - f_lo)
        elif y >= 0.0:  # right tail: anchored at hi
            v = u1 - du * (_tail_ratio(t, arc.log_norm) - arc.anchor_hi)
        else:  # left tail: the mirror image, anchored at lo
            v = u0 + du * (_tail_ratio(-t, arc.log_norm) - arc.anchor_lo)
        return min(max(v, min(u0, u1)), max(u0, u1))

    def flux_limits(self, xi: float) -> tuple[float, float]:
        """One-sided values of a^2(v) v'(xi)."""
        i, j = self._phases_at(xi)
        right = self._flux(j, xi)
        return (self._flux(i, xi) if i < j else right), right

    def sample(self, xs) -> np.ndarray:
        """Values on a grid in one pass; exact junction points take the right limit.

        A point in phase k is u_k + slope (R_k(|xi| / scale) - anchor_lo)
        left of the pivot and u_{k+1} - slope (R_k(|xi| / scale) - anchor_hi)
        from it on, clipped to the phase's state interval: a live phase
        pivots at 0, so each side is anchored at its own end, and a dead one
        at its jump with slope 0.
        """
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        if np.isnan(xs).any():
            raise ValueError("xi must not be NaN")
        arcs = _Arc(*np.array(self._table).T)  # the table's columns
        flat = xs.ravel()
        k = np.searchsorted(self.boundaries, flat, side="right")
        u = np.array(self.states)
        u_lo, u_hi, slope = u[k], u[k + 1], arcs.slope[k]
        r = _tail_ratio_vec(np.abs(flat / arcs.scale[k]), arcs.log_norm[k])
        v = np.where(
            flat < arcs.pivot[k],
            u_lo + slope * (r - arcs.anchor_lo[k]),
            u_hi - slope * (r - arcs.anchor_hi[k]),
        )
        v = np.clip(v, np.minimum(u_lo, u_hi), np.maximum(u_lo, u_hi))
        for i in np.flatnonzero(arcs.deep[k]):  # the scalar tail fraction
            v[i] = self._value(int(k[i]), float(flat[i]))
        return v.reshape(xs.shape)

    @property
    def left_state(self) -> float:
        return self.states[0]

    @property
    def right_state(self) -> float:
        return self.states[-1]

    def mirrored(self) -> "SelfSimilarProfile":
        """The profile of the space-reflected solution, v(-xi)."""
        return SelfSimilarProfile(
            boundaries=tuple(-b for b in reversed(self.boundaries)),
            states=self.states[::-1],
            coefficients=self.coefficients[::-1],
        )


def build_profile(problem: RiemannProblem, x: Sequence[float]) -> SelfSimilarProfile:
    """The profile of the m solved free positions ``x``, in the solver frame."""
    return SelfSimilarProfile(
        boundaries=problem.expand([float(v) for v in x]),
        states=problem.partition.breakpoints,
        coefficients=problem.partition.coefficients,
    )


def eval_selfsimilar(profile: SelfSimilarProfile, xi: float):
    """v(xi); at a jump location, the pair of one-sided values."""
    left, right = profile.limits(xi)
    if left != right:
        return (left, right)
    return right


def eval_solution(profile: SelfSimilarProfile, t: float, x: float):
    """u(t, x) = v(x / sqrt(t)) for 0 < t < inf."""
    if not 0.0 < t < _INF:
        raise ValueError(f"t must be positive and finite, got {t!r}")
    return eval_selfsimilar(profile, x / math.sqrt(t))


def flux(profile: SelfSimilarProfile, xi: float):
    """a^2(v) v'(xi); at a junction, the pair of one-sided fluxes."""
    left, right = profile.flux_limits(xi)
    if left != right:
        return (left, right)
    return right


class JumpRecord(NamedTuple):
    boundary: int  # nominal index, 1-based
    slot: int  # free-variable index, 0-based
    location: float
    left: float
    right: float
    a_jump: float  # jump of A(u) across the line (zero for weak solutions)
    rh_residual: float  # [u] * xi / 2 + [a^2 v']
    classification: str  # "weak" | "strong"


def jump_residuals(problem: RiemannProblem, profile: SelfSimilarProfile) -> tuple[JumpRecord, ...]:
    """Interface diagnostics at every nominal boundary, read from the profile.

    The residual is the self-similar form of the moving-interface balance,
    (right - left) * xi / 2 + (flux_right - flux_left), with the states from
    ``limits`` and the fluxes from ``flux_limits`` at the boundary, so a
    fused pair reads the live phases beyond it.  It vanishes at the
    minimizer and is reported, not thrown, so perturbed profiles can be
    inspected.  Each flux is a du R(xi/a) with the ratio R = H'/D from
    ``special.heat_step_arc``, so the residual is finite wherever the
    objective is.  The one-sided states are nodes of
    ``diffusion_antiderivative``, so A is read from its table exactly, in
    either orientation.
    """
    a_at = dict(zip(*diffusion_antiderivative(problem.partition)))
    b = profile.boundaries
    records: list[JumpRecord] = []
    slot = -1
    for k, loc in enumerate(b, start=1):
        if k == 1 or loc != b[k - 2]:
            slot += 1
        left, right = profile.limits(loc)
        flux_left, flux_right = profile.flux_limits(loc)
        records.append(
            JumpRecord(
                boundary=k,
                slot=slot,
                location=loc,
                left=left,
                right=right,
                a_jump=a_at[right] - a_at[left],
                rh_residual=(right - left) * loc / 2.0 + (flux_right - flux_left),
                classification="strong" if left != right else "weak",
            )
        )
    return tuple(records)
