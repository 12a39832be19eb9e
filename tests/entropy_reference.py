"""Reference objective: one scalar loop per quantity.

These are the three loops the fused ``selfsim.entropy.entropy_pass``
replaced.  Each takes ln D per interval on its own from the kernel
``heat_step_arc`` and forms its own ratios, so it is slow, but it is the
plain transcription of the objective's terms and serves as the oracle the
fused pass must reproduce bit for bit.
Points must be feasible; nothing is checked here.
"""

from __future__ import annotations

import math

import numpy as np

from selfsim.special import heat_step_arc

from conftest import log_heat_step_deriv


def _full(problem, values):
    # xi_0 .. xi_{n+1} with the infinite sentinels attached
    return (-math.inf,) + problem.expand(tuple(values)) + (math.inf,)


def _log_d(full, k, a):
    # ln D of interval k, read by the kernel from the interval's own ends
    return heat_step_arc(full[k], full[k + 1], a)[0]


def _anchor(k, n):
    # the finite boundary whose position enters a degenerate interval's term
    if k == 0:
        return 1
    if k == n:
        return n
    return k


def reference_value(problem, values) -> float:
    full = _full(problem, values)
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    total = 0.0
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            total -= a * a * du * _log_d(full, k, a)
        else:
            s = full[_anchor(k, n)]
            total += 0.25 * du * s * s
    return total


def reference_shifted_value(problem, values) -> float:
    """The shifted objective, each live term written as -a^2 du ln(D a / du)."""
    full = _full(problem, values)
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    total = 0.0
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            total -= a * a * du * (_log_d(full, k, a) + math.log(a / du))
        else:
            s = full[_anchor(k, n)]
            total += 0.25 * du * s * s
    return total


def reference_gradient(problem, values) -> np.ndarray:
    full = _full(problem, values)
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    slots = problem.slots
    g = np.zeros(problem.m)
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            # d/d(xi_k)      [-a^2 du ln dH] = +a du H'(xi_k/a) / dH
            # d/d(xi_{k+1})  [-a^2 du ln dH] = -a du H'(xi_{k+1}/a) / dH
            logdf = _log_d(full, k, a)
            if k >= 1:
                g[slots[k - 1]] += a * du * math.exp(log_heat_step_deriv(full[k] / a) - logdf)
            if k <= n - 1:
                g[slots[k]] -= a * du * math.exp(log_heat_step_deriv(full[k + 1] / a) - logdf)
        else:
            # d/ds [du s^2/4] = du s / 2 at the surviving finite boundary
            b = _anchor(k, n)
            g[slots[b - 1]] += 0.5 * du * full[b]
    return g


def reference_hessian(problem, values) -> tuple[np.ndarray, np.ndarray]:
    full = _full(problem, values)
    u = problem.partition.breakpoints
    cs = problem.partition.coefficients
    n = problem.n
    slots = problem.slots
    hd = np.zeros(problem.m)
    ho = np.zeros(max(problem.m - 1, 0))
    for k in range(n + 1):
        du = u[k + 1] - u[k]
        a = cs[k]
        if a > 0.0:
            # with R(t) = H'(t)/dH and H'' = -(t/2) H', in x = xi_{k+1}/a, y = xi_k/a:
            #   d2/d(xi_{k+1})^2 : du * (R(x)^2 + (x/2) R(x))
            #   d2/d(xi_k)^2     : du * (R(y)^2 - (y/2) R(y))
            #   cross            : -du * R(x) R(y)
            logdf = _log_d(full, k, a)
            if k <= n - 1:
                xs = full[k + 1] / a
                rx = math.exp(log_heat_step_deriv(xs) - logdf)
                hd[slots[k]] += du * (rx * rx + 0.5 * xs * rx)
            if k >= 1:
                ys = full[k] / a
                ry = math.exp(log_heat_step_deriv(ys) - logdf)
                hd[slots[k - 1]] += du * (ry * ry - 0.5 * ys * ry)
            if 1 <= k <= n - 1:
                ho[slots[k - 1]] -= du * rx * ry
        else:
            b = _anchor(k, n)
            hd[slots[b - 1]] += 0.5 * du
    return hd, ho
