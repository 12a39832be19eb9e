"""A 50-digit boundary oracle: the objective's minimiser by Newton in mpmath.

The objective of ``selfsim.entropy`` is restated here without any of the
solver's kernels.  A live phase k adds -a^2 du ln D, with D = H(hi/a) -
H(lo/a) as a difference of erfc on the side of 0 the arc lies on and of erf
across it (as ``test_profile._mp_residuals`` reads it); a dead phase adds
du s^2 / 4 at the one boundary s it keeps.  With R = H'/D at the scaled ends
y = lo/a and x = hi/a, a live phase adds a du R(y) to the gradient at lo and
-a du R(x) at hi, du (R(y)^2 - y R(y)/2) and du (R(x)^2 + x R(x)/2) to the
Hessian's diagonal and -du R(x) R(y) off it; a dead phase adds du s / 2 and
du / 2.  Newton runs on the dense Hessian with ``mpmath.lu_solve``, halving
a step that would leave the free positions out of order, from the double
solution until a step it did not halve is below 1e-40.  The work carries
20 guard digits over the 50, because D cancels by up to about 16 digits on
an arc a few ulps wide, and an arc 2 log10 |t| more, t its larger finite
scaled end, because its curvature cancels that many where R is about |t|/2.
"""

from __future__ import annotations

import mpmath

_STEP_BELOW = mpmath.mpf("1e-40")
_GUARD = 20
_MAX_STEPS = 40


def _arc(lo, hi, a):
    # R = H'/D at the scaled ends y = lo/a and x = hi/a and the curvatures
    # R (R - y/2) and R (R + x/2), 0 at an infinite end
    far = max(abs(e) for e in (lo / a, hi / a) if mpmath.isfinite(e))
    with mpmath.extradps(2 * int(mpmath.log10(1 + far))):
        y, x = lo / a, hi / a
        if y >= 0:
            d = (mpmath.erfc(y / 2) - mpmath.erfc(x / 2)) / 2
        elif x <= 0:
            d = (mpmath.erfc(-x / 2) - mpmath.erfc(-y / 2)) / 2
        else:
            d = (mpmath.erf(x / 2) - mpmath.erf(y / 2)) / 2
        scale = 1 / (2 * mpmath.sqrt(mpmath.pi) * d)
        r_y = scale * mpmath.exp(-y * y / 4) if mpmath.isfinite(y) else mpmath.mpf(0)
        r_x = scale * mpmath.exp(-x * x / 4) if mpmath.isfinite(x) else mpmath.mpf(0)
        c_y = r_y * (r_y - y / 2) if r_y else r_y
        c_x = r_x * (r_x + x / 2) if r_x else r_x
        return r_y, r_x, c_y, c_x


def _derivatives(problem, xs):
    # the gradient and the dense Hessian at the m free positions xs
    u = [mpmath.mpf(v) for v in problem.partition.breakpoints]
    cs, slots, n = problem.partition.coefficients, problem.slots, problem.n
    g = [mpmath.mpf(0)] * problem.m
    h = mpmath.zeros(problem.m, problem.m)
    ends = [mpmath.mpf("-inf"), *(xs[j] for j in slots), mpmath.mpf("inf")]
    for k, a in enumerate(cs):
        du = u[k + 1] - u[k]
        if a == 0.0:  # s is boundary 1 on the left edge, boundary k (= k + 1) elsewhere
            i = slots[max(k, 1) - 1]
            g[i] += du * xs[i] / 2
            h[i, i] += du / 2
            continue
        a = mpmath.mpf(a)
        r_y, r_x, c_y, c_x = _arc(ends[k], ends[k + 1], a)
        if k >= 1:
            i = slots[k - 1]
            g[i] += a * du * r_y
            h[i, i] += du * c_y
        if k < n:
            j = slots[k]
            g[j] -= a * du * r_x
            h[j, j] += du * c_x
        if 1 <= k < n:
            h[i, j] -= du * r_x * r_y
            h[j, i] -= du * r_x * r_y
    return g, h


def mp_minimizer(problem, start, dps: int = 50) -> list:
    """The m free positions of the objective's minimiser, as mpf, by Newton from ``start``."""
    with mpmath.workdps(dps + _GUARD):
        xs = [mpmath.mpf(v) for v in start]
        for _ in range(_MAX_STEPS):
            g, h = _derivatives(problem, xs)
            step = mpmath.lu_solve(h, -mpmath.matrix(g))
            trial = [v + s for v, s in zip(xs, step)]
            halved = False
            while any(b <= a for a, b in zip(trial, trial[1:])):
                step /= 2
                halved = True
                trial = [v + s for v, s in zip(xs, step)]
            xs = trial
            # a halved step is small by the cut, not by convergence
            if not halved and max(abs(s) for s in step) < _STEP_BELOW:
                return xs
    raise AssertionError(f"the 50-digit Newton did not converge from {start!r}")


def solver_frame_positions(solution) -> list[float]:
    """The m free positions of a solve, in the solver frame (increasing states)."""
    problem = solution.problem
    profile = solution.profile.mirrored() if problem.orientation_flipped else solution.profile
    return [profile.boundaries[problem.slots.index(j)] for j in range(problem.m)]


def forward_error(solution, dps: int = 50) -> float:
    """max |xi - xi*| / a_max over the free positions, xi* the 50-digit minimiser."""
    start = solver_frame_positions(solution)
    exact = mp_minimizer(solution.problem, start, dps)
    worst = max(abs(mpmath.mpf(v) - w) for v, w in zip(start, exact))
    return float(worst / max(solution.problem.partition.coefficients))
