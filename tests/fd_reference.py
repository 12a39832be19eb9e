"""Reference FD integrators: the ``np.interp`` loop and the full-array loop.

``reference_fd_solve`` is the explicit scheme as ``selfsim.oracle.fd_solve``
ran it before the blockwise evaluation of A: the same domain, time step and
stencil, with A interpolated over every cell at every step.  Slow, but the
plain transcription of the scheme, and the oracle ``fd_solve`` must
reproduce.

``full_array_fd_solve`` is the blockwise loop as ``fd_solve`` ran it before
it left the flat block above the last node alone: seven numpy calls per step
over every cell.  ``fd_solve`` must reproduce it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from selfsim.oracle import HALFWIDTH_FACTOR, SAFETY, FDGrid
from selfsim.problem import diffusion_antiderivative


def reference_fd_solve(problem, t_final: float, dx: float) -> FDGrid:
    nodes, avals = diffusion_antiderivative(problem.partition)
    a_max = max(problem.partition.coefficients)
    half_cells = int(math.ceil(HALFWIDTH_FACTOR * a_max * math.sqrt(t_final) / dx)) + 1
    x = (np.arange(2 * half_cells) - half_cells + 0.5) * dx
    u = np.where(x < 0.0, nodes[0], nodes[-1])
    half_width = (half_cells - 0.5) * dx
    if a_max == 0.0:
        return FDGrid(half_width=half_width, dx=dx, dt=0.0, t_final=t_final, cells=u, steps=0)
    dt_bound = SAFETY * dx * dx / (2.0 * a_max * a_max)
    steps = int(math.ceil(t_final / dt_bound))
    dt = t_final / steps
    lam = dt / (dx * dx)
    lap = np.empty(u.size - 2)
    inner = u[1:-1]
    for _ in range(steps):
        av = np.interp(u, nodes, avals)
        np.multiply(2.0, av[1:-1], out=lap)
        np.subtract(av[2:], lap, out=lap)
        np.add(lap, av[:-2], out=lap)
        np.multiply(lam, lap, out=lap)
        inner += lap
    return FDGrid(half_width=half_width, dx=dx, dt=dt, t_final=t_final, cells=u, steps=steps)


def full_array_fd_solve(problem, t_final: float, dx: float) -> FDGrid:
    nodes, avals = (np.array(v) for v in diffusion_antiderivative(problem.partition))
    a_max = max(problem.partition.coefficients)
    half_cells = int(math.ceil(HALFWIDTH_FACTOR * a_max * math.sqrt(t_final) / dx)) + 1
    x = (np.arange(2 * half_cells) - half_cells + 0.5) * dx
    u = np.where(x < 0.0, nodes[0], nodes[-1])  # the step from u_0 to u_{n+1}
    half_width = (half_cells - 0.5) * dx
    if a_max == 0.0:
        return FDGrid(half_width=half_width, dx=dx, dt=0.0, t_final=t_final, cells=u, steps=0)
    denominator = 2.0 * a_max * a_max
    dt_bound = SAFETY * dx * dx / denominator if denominator > 0.0 else math.inf
    steps = max(int(math.ceil(t_final / dt_bound)), 1)
    dt = t_final / steps
    lam = dt / (dx * dx)
    # block j (phase j, then the flat block above the last node) holds
    # lam * A(u) = slopes[j] * (u - nodes[j]) + values[j]
    slopes = np.append(lam * (np.diff(avals) / np.diff(nodes)), 0.0)
    values = lam * avals
    upper = nodes[1:]
    table = np.stack((slopes, nodes, values))
    stencil = np.array((1.0, -2.0, 1.0))
    edges = np.zeros(upper.size + 2, dtype=np.intp)  # 0, the cuts, the cell count
    edges[-1] = u.size
    seen = b""
    av = np.empty(u.size)
    inner = u[1:-1]
    for _ in range(steps):
        cuts = u.searchsorted(upper)  # cells below each upper node
        key = cuts.tobytes()
        if key != seen:
            seen = key
            edges[1:-1] = cuts
            slope, base, value = np.repeat(table, np.diff(edges), axis=1)
        np.subtract(u, base, av)
        np.multiply(av, slope, av)
        np.add(av, value, av)
        np.add(inner, np.correlate(av, stencil), inner)
    return FDGrid(half_width=half_width, dx=dx, dt=dt, t_final=t_final, cells=u, steps=steps)
