"""Self-similar profiles and their jump diagnostics.

A solved problem yields v(xi), xi = x / sqrt(t), and a profile stores only
what determines it: the nominal boundary positions xi_1 <= ... <= xi_n
(fused pairs repeated), the states u_0..u_{n+1} and the coefficients
a_0..a_n.  Phase k spans [xi_k, xi_{k+1}] with xi_0 = -inf, xi_{n+1} = +inf.
A live phase (a_k > 0) is the error-function arc

    v(xi) = u_k + (u_{k+1} - u_k) * (H(xi/a_k) - H(xi_k/a_k)) / D_k,
    D_k = H(xi_{k+1}/a_k) - H(xi_k/a_k),    H = heat_step,

and a dead phase (a_k = 0) is a jump from u_k to u_{k+1} at xi_max(k, 1),
the boundary its term of the objective keeps (at 0 when it is the only
phase).  Fluxes, jumps and the mirror image are derived from those three
tuples where they are asked for: a flux takes ln D_k and the end ratios of
its one phase from ``special.heat_step_arc``, and ``jump_residuals`` walks
the boundary lines once, reading each line's states and fluxes from the
phase that ends on it and the phase that begins on it.

Values come from the one cached table, a piece per one-signed stretch,
each read from its near end by ``special.heat_step_delta``, delta(n, w) =
D / H'(n) on [n, n + w]: at tau = |xi - near| / a_k, a difference before
the division, v = u_near +- du delta(n, tau) / delta(n, w), so a narrow arc
keeps its jump to rounding.
A one-signed arc is one piece, read from its end nearer 0; an arc across 0
is two, meeting at v(0); an arc whose width over a_k underflows to 0 holds
u_k up to its far end, and its flux is 0.  An edge whose far state is below its jump is read
in complement form, u_far -+ du ``special.heat_step_rest`` / delta(n, inf),
to the far field's relative accuracy.  At n = 0 ``limits`` takes erf and
erfc from ``math``, as ``heat_step`` does; ``sample`` is the array form, on
``special.heat_step_delta_vec``.  numpy is loaded by ``sample`` alone; the
CLI writes its profile grids point by point through ``limits``, on
``_linspace``, numpy's ``linspace`` in Python floats bit for bit, so a solve
runs without it.  ``continuum`` takes its grids from ``_linspace`` too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple

from .problem import PhasePartition, RiemannProblem, diffusion_antiderivative
from .special import heat_step_arc, heat_step_delta, heat_step_delta_by_rule, heat_step_delta_vec
from .special import heat_step_deriv, heat_step_rest

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

_INF = math.inf


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


# a stretch read from its near end, tau = (xi - near) / scale >= 0 into it, scale = +-a_k and n = |near| / a_k
# (+-1 and 0 on a dead phase): v = base + du (full - heat_step_rest(n, tau)) / norm in [lo, hi], du = u_far -
# u_near, norm = delta(n, width), and base, full = u_near, delta(n, inf), or u_far, 0 in complement form
_Piece = namedtuple("_Piece", "start near scale n base full du norm lo hi width by_rule")


def _piece(start, near, scale, n, width, u_near, u_far) -> _Piece:
    du = u_far - u_near
    full = heat_step_rest(n, 0.0)
    norm = heat_step_delta(n, width)
    lo, hi = (u_near, u_far) if du >= 0.0 else (u_far, u_near)
    # an edge is read in complement form where eps du would swamp the values near u_far
    base, full = (u_far, 0.0) if width == _INF and abs(u_far) < abs(du) else (u_near, full)
    return _Piece(start, near, scale, n, base, full, du, norm, lo, hi, width, heat_step_delta_by_rule(n, width))


def _read(p: _Piece, xi: float) -> float:
    # v at one point of a piece; delta(0, t) = sqrt(pi) erf(t/2), rest sqrt(pi) erfc(t/2)
    tau = (xi - p.near) / p.scale
    if p.n != 0.0:
        f = (heat_step_delta(p.n, tau) if p.full else -heat_step_rest(p.n, tau)) / p.norm
    elif not p.full:
        f = -math.erfc(0.5 * tau)
    else:  # tau / width, the limit, once erf(width / 2) rounds to 0
        e = math.erf(0.5 * p.width)
        f = math.erf(0.5 * tau) / e if e else tau / p.width
    return min(max(p.base + p.du * f, p.lo), p.hi)


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

    # no __slots__: the instance dict holds the cached pieces, so ==, hash
    # and repr still see the three fields

    def _ends(self, k: int) -> tuple[float, float]:
        # xi_k and xi_{k+1}, with xi_0 = -inf and xi_{n+1} = +inf
        b = self.boundaries
        return (b[k - 1] if k else -_INF), (b[k] if k < len(b) else _INF)

    def _pivot(self, k: int) -> float:
        # where dead phase k jumps: xi_max(k, 1), the boundary its objective term keeps; 0 with none
        b = self.boundaries
        return b[max(k, 1) - 1] if b else 0.0

    @cached_property
    def _pieces(self) -> tuple[tuple[float, ...], tuple[_Piece, ...]]:
        # the pieces from left to right, and the cuts between them
        u = self.states
        pieces = []
        for k, a in enumerate(self.coefficients):
            lo, hi = self._ends(k)
            if a == 0.0:  # u_k up to the jump at the pivot, u_{k+1} from it on; either may be empty
                pivot = self._pivot(k)
                pieces.append(_piece(lo, pivot, -1.0, 0.0, _INF, u[k], u[k]))
                pieces.append(_piece(pivot, pivot, 1.0, 0.0, _INF, u[k + 1], u[k + 1]))
                continue
            x, y, w = hi / a, lo / a, (hi - lo) / a
            if not w:  # a width below the subnormals: u_k up to the next phase at hi
                pieces.append(_piece(lo, lo, 1.0, 0.0, _INF, u[k], u[k]))
            elif y >= 0.0:
                pieces.append(_piece(lo, lo, a, y, w, u[k], u[k + 1]))
            elif x <= 0.0:
                pieces.append(_piece(lo, hi, -a, -x, w, u[k + 1], u[k]))
            else:  # two halves meeting at v(0), delta(0, w) = sqrt(pi) erf(w/2)
                e_lo, e_hi = math.erf(-0.5 * y), math.erf(0.5 * x)
                # both ends within a subnormal of 0: the width limit, as heat_step_arc's D = w H'(0)
                share = e_lo / (e_lo + e_hi) if e_lo + e_hi else -y / (x - y)
                mid = u[k] + (u[k + 1] - u[k]) * share
                pieces.append(_piece(lo, 0.0, -a, 0.0, -y, mid, u[k]))
                pieces.append(_piece(0.0, 0.0, a, 0.0, x, mid, u[k + 1]))
        return tuple(p.start for p in pieces[1:]), tuple(pieces)

    def _sides(self, i: int, j: int) -> tuple[float, float]:
        # the states on either side of a line where phase i ends and phase j begins
        u, cs = self.states, self.coefficients
        return (u[i + 1] if cs[i] > 0.0 else u[i]), (u[j] if cs[j] > 0.0 else u[j + 1])

    def _flux(self, k: int, xi: float) -> float:
        # a^2 v' = a du R(xi/a) in phase k, R = H'/D; zero where a vanishes,
        # and on an arc whose width over a underflows to 0, which the values
        # read as a constant piece.  At an arc end R is the kernel's.  Inside
        # an arc that straddles 0, D is not small and R = H'(t)/D; inside a
        # one-signed arc R is carried from the end nearer 0 by H'(t)/H'(end),
        # so that no two logs of about -t^2/4 are subtracted
        a = self.coefficients[k]
        lo, hi = self._ends(k)
        if a == 0.0 or not (hi - lo) / a:
            return 0.0
        log_norm, r_hi, r_lo = heat_step_arc(lo, hi, a)[:3]
        if xi == hi:
            r = r_hi
        elif xi == lo:
            r = r_lo
        elif lo < 0.0 < hi:
            r = heat_step_deriv(xi / a) * math.exp(-log_norm)
        else:  # (end - t)(end + t) from differences of xi, as in the values
            end, r_end = (lo, r_lo) if lo >= 0.0 else (hi, r_hi)
            r = r_end * math.exp(0.25 * ((end - xi) / a) * ((end + xi) / a))
        return a * (self.states[k + 1] - self.states[k]) * r

    def jumps(self) -> tuple[JumpPoint, ...]:
        u, cs = self.states, self.coefficients
        return tuple(JumpPoint(self._pivot(k), u[k], u[k + 1]) for k, a in enumerate(cs) if a == 0.0)

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
        cuts, pieces = self._pieces
        v = _read(pieces[bisect_right(cuts, xi)], xi)
        if self.coefficients[i] == 0.0:  # a constant tail, or the frozen step
            return _read(pieces[bisect_left(cuts, xi)], xi), v
        return v, v

    def flux_limits(self, xi: float) -> tuple[float, float]:
        """One-sided values of a^2(v) v'(xi)."""
        i, j = self._phases_at(xi)
        right = self._flux(j, xi)
        return (self._flux(i, xi) if i < j else right), right

    def sample(self, xs) -> np.ndarray:
        """Values on a grid in one pass, as ``limits`` reads them; a junction point takes the right limit."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        if np.isnan(xs).any():
            raise ValueError("xi must not be NaN")
        cuts, pieces = self._pieces
        flat = xs.ravel()
        p = _Piece(*np.array(pieces).take(np.searchsorted(cuts, flat, side="right"), axis=0).T)
        v = p.base + p.du * (heat_step_delta_vec(p.n, (flat - p.near) / p.scale, p.full, p.by_rule) / p.norm)
        return np.minimum(np.maximum(v, p.lo, out=v), p.hi, out=v).reshape(xs.shape)

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


def jump_residuals(profile: SelfSimilarProfile) -> tuple[JumpRecord, ...]:
    """Interface diagnostics at every nominal boundary, read from the profile.

    The residual is the self-similar form of the moving-interface balance,
    (right - left) * xi / 2 + (flux_right - flux_left).  One walk over the
    boundary lines reads each line's states and fluxes once, from the phase
    that ends on it and the phase that begins on it, so a fused pair reads
    the live phases beyond it; every boundary on the line gets its record,
    with its own xi.  The residual vanishes at the minimizer and is
    reported, not thrown, so perturbed profiles can be inspected.  Each flux
    is a du R(xi/a) with the ratio R = H'/D from ``special.heat_step_arc``,
    so the residual is finite wherever the objective is.  The one-sided
    states are nodes of ``diffusion_antiderivative``, summed from the lower
    state up in either orientation, so A is read from its table exactly.
    """
    u, cs = profile.states, profile.coefficients
    if u[0] > u[-1]:
        u, cs = u[::-1], cs[::-1]
    a_at = dict(zip(*diffusion_antiderivative(PhasePartition(u, cs))))
    records: list[JumpRecord] = []
    i = 0  # the phase that ends on the line; the one that begins on it is j
    for slot, (line, run) in enumerate(groupby(profile.boundaries)):
        if math.isnan(line):
            raise ValueError("xi must not be NaN")
        run = tuple(run)
        j = i + len(run)
        left, right = profile._sides(i, j)
        a_jump = a_at[right] - a_at[left]
        flux_jump = profile._flux(j, line) - profile._flux(i, line)
        classification = "strong" if left != right else "weak"
        for k, loc in enumerate(run, start=i + 1):
            rh_residual = (right - left) * loc / 2.0 + flux_jump
            records.append(JumpRecord(k, slot, loc, left, right, a_jump, rh_residual, classification))
        i = j
    return tuple(records)
