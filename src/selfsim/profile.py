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
mirror image are all derived from those three tuples; each live phase's
ln D_k is taken once per profile, and ``jump_residuals`` reads its balance
from the one-sided ``limits`` and ``flux_limits``.

``sample`` takes every arc value in one pass, in complement form, from the
tail ratio R_k(s) = (1 - H(s)) / D_k = erfcx(s/2) exp(-s^2/4 - ln D_k) / 2
(s >= 0, ln D_k from ``special.log_heat_step_diff``): a point at
t = xi/a_k >= 0 is anchored at the arc's right end,
v = u_{k+1} - du (R_k(t) - R_k(xi_{k+1}/a_k)), and a point at t < 0 at its
left end by the mirror image, v = u_k + du (R_k(-t) - R_k(-xi_k/a_k)), so
no arc underflows.  The exponent -s^2/4 - ln D_k keeps only eps s^2/4 of
absolute accuracy, so an arc whose nearer scaled end is past
``special.TAIL_FROM`` (52) takes ``special.heat_step_tail_fraction`` from
that end instead, point by point.  The one-point ``limits`` does the same on
arcs with both scaled ends on one side of 0, and takes plain heat_step
differences, which cannot cancel there, on the one arc that may straddle 0.
Each arc is clipped to its own state interval.  numpy is loaded by
``sample`` alone; the CLI writes its profile grids point by point through
``limits``, so a solve runs without it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .problem import RiemannProblem, diffusion_antiderivative
from .special import (
    TAIL_FROM,
    erfcx,
    erfcx_vec,
    heat_step,
    heat_step_deriv,
    heat_step_ratios,
    heat_step_tail_fraction,
    log_heat_step_diff,
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


@dataclass(frozen=True)
class JumpPoint:
    location: float
    left: float
    right: float


@dataclass(frozen=True)
class SelfSimilarProfile:
    """v(xi) as boundaries, states and coefficients; phase k is [xi_k, xi_{k+1})."""

    boundaries: tuple[float, ...]  # nominal xi_1..xi_n, fused pairs repeated
    states: tuple[float, ...]  # u_0..u_{n+1}, in the caller's order
    coefficients: tuple[float, ...]  # a_0..a_n

    def _ends(self, k: int) -> tuple[float, float]:
        b = self.boundaries
        return (b[k - 1] if k > 0 else -_INF), (b[k] if k < len(b) else _INF)

    def _jump_location(self, k: int) -> float:
        # of dead phase k: xi_1 on the left edge, else xi_k
        return self.boundaries[max(k - 1, 0)] if self.boundaries else 0.0

    @cached_property
    def _log_norms(self) -> tuple[float, ...]:
        # ln D_k of each live phase, 0.0 for a dead one; the cache lives in
        # the instance dict, so ==, hash and repr still see the three fields
        edges = (-_INF, *self.boundaries, _INF)
        return tuple(
            log_heat_step_diff(hi / a, lo / a) if a > 0.0 else 0.0
            for a, lo, hi in zip(self.coefficients, edges, edges[1:])
        )

    @cached_property
    def _end_ratios(self) -> tuple[tuple[float, float], ...]:
        # R = H'/D at the right and the left end of each live phase, from
        # the kernel; (0.0, 0.0) for a dead one
        edges = (-_INF, *self.boundaries, _INF)
        return tuple(
            heat_step_ratios(hi / a, lo / a, log_norm)[:2] if a > 0.0 else (0.0, 0.0)
            for a, lo, hi, log_norm in zip(self.coefficients, edges, edges[1:], self._log_norms)
        )

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
        lo, hi = self._ends(k)
        r_hi, r_lo = self._end_ratios[k]
        if xi == hi:
            r = r_hi
        elif xi == lo:
            r = r_lo
        elif lo < 0.0 < hi:
            r = heat_step_deriv(xi / a) * math.exp(-self._log_norms[k])
        else:  # (end - t)(end + t) from differences of xi, as in the values
            end, r_end = (lo, r_lo) if lo >= 0.0 else (hi, r_hi)
            r = r_end * math.exp(0.25 * ((end - xi) / a) * ((end + xi) / a))
        return a * (self.states[k + 1] - self.states[k]) * r

    def jumps(self) -> tuple[JumpPoint, ...]:
        u = self.states
        return tuple(
            JumpPoint(self._jump_location(k), u[k], u[k + 1])
            for k, a in enumerate(self.coefficients)
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
            u, loc = self.states, self._jump_location(i)
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
        a = self.coefficients[k]
        lo, hi = self._ends(k)
        x, y, t = hi / a, lo / a, xi / a
        du = u1 - u0
        if y < 0.0 < x:
            f_lo = heat_step(y)
            v = u0 + du / (heat_step(x) - f_lo) * (heat_step(t) - f_lo)
        elif y >= TAIL_FROM:  # deep in the right tail: from the near end lo
            v = u0 + du * heat_step_tail_fraction(lo, hi, xi, a)
        elif x <= -TAIL_FROM:
            v = u1 - du * heat_step_tail_fraction(hi, lo, xi, a)
        else:
            log_norm = self._log_norms[k]
            if y >= 0.0:  # right tail: anchored at hi
                v = u1 - du * (_tail_ratio(t, log_norm) - _tail_ratio(x, log_norm))
            else:  # left tail: the mirror image, anchored at lo
                v = u0 + du * (_tail_ratio(-t, log_norm) - _tail_ratio(-y, log_norm))
        return min(max(v, min(u0, u1)), max(u0, u1))

    def flux_limits(self, xi: float) -> tuple[float, float]:
        """One-sided values of a^2(v) v'(xi)."""
        i, j = self._phases_at(xi)
        right = self._flux(j, xi)
        return (self._flux(i, xi) if i < j else right), right

    def _arcs(self) -> tuple[np.ndarray, ...]:
        """Per-phase scalars of ``sample``.

        Phase k has one row k for points left of its pivot and one row
        n + 1 + k for points right of it; a point's value is
        base + slope * (R_k(|xi| / scale) - R_k(end)), clipped to [low, high],
        with end the row's scaled phase end.  A live phase pivots at 0, so
        each side is anchored at its own end; a dead phase pivots at its jump
        with slope 0, so it takes its left state left of the jump and its
        right state from the jump on.
        """
        import numpy as np

        cs, u = self.coefficients, self.states
        live = [a > 0.0 for a in cs]
        scale = np.array([a if ok else 1.0 for a, ok in zip(cs, live)])
        log_norm = np.array(self._log_norms)
        pivot = np.array([0.0 if ok else self._jump_location(k) for k, ok in enumerate(live)])
        edges = np.array((-_INF, *self.boundaries, _INF))
        ends = np.abs(np.concatenate((edges[:-1], edges[1:])) / np.tile(scale, 2))
        du = np.array([u[k + 1] - u[k] if ok else 0.0 for k, ok in enumerate(live)])
        base = np.array(u[:-1] + u[1:])
        low = np.minimum(base[: len(cs)], base[len(cs) :])
        high = np.maximum(base[: len(cs)], base[len(cs) :])
        return scale, log_norm, pivot, ends, base, np.concatenate((du, -du)), low, high

    def sample(self, xs) -> np.ndarray:
        """Values on a grid in one pass; exact junction points take the right limit."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        if np.isnan(xs).any():
            raise ValueError("xi must not be NaN")
        scale, log_norm, pivot, ends, base, slope, low, high = self._arcs()
        flat = xs.ravel()
        k = np.searchsorted(self.boundaries, flat, side="right")
        row = np.where(flat >= pivot[k], k + len(scale), k)
        # the points' tail ratios and the rows' anchors in one kernel pass
        r = _tail_ratio_vec(
            np.concatenate((np.abs(flat / scale[k]), ends)),
            np.concatenate((log_norm[k], log_norm, log_norm)),
        )
        anchor = r[flat.size :]
        v = np.clip(base[row] + slope[row] * (r[: flat.size] - anchor[row]), low[k], high[k])
        # points on an arc deep in one tail take the scalar tail fraction
        edges = (-_INF, *self.boundaries, _INF)
        for phase, a in enumerate(self.coefficients):
            if a > 0.0 and (edges[phase] / a >= TAIL_FROM or edges[phase + 1] / a <= -TAIL_FROM):
                for i in np.flatnonzero(k == phase):
                    v[i] = self._value(phase, float(flat[i]))
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


@dataclass(frozen=True)
class JumpRecord:
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
    ``special.heat_step_ratios``, so the residual is finite wherever the
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
