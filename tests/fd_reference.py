"""Reference FD integrator: the ``np.interp`` loop.

This is the explicit scheme as ``selfsim.oracle.fd_solve`` ran it before the
blockwise evaluation of A: the same domain, time step and stencil, with A
interpolated over every cell at every step.  Slow, but the plain
transcription of the scheme, and the oracle ``fd_solve`` must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from selfsim.oracle import HALFWIDTH_FACTOR, SAFETY, FDGrid
from selfsim.problem import diffusion_antiderivative


def reference_fd_solve(problem, t_final: float, dx: float) -> FDGrid:
    nodes, avals = diffusion_antiderivative(problem.partition)
    a_max = max(problem.partition.coefficients)
    half_cells = int(math.ceil(HALFWIDTH_FACTOR * max(a_max, 1.0) * math.sqrt(t_final) / dx)) + 1
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
