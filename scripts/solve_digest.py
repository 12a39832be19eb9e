"""Print one SHA-256 digest over a fixed set of solves, to show a change keeps every bit.

Each solve contributes the ``float.hex`` of its boundaries, of every trace
record's value, gradient norm and step length, and of every jump's
``rh_residual``, then its iteration count and stop reason; a refused or
failed solve contributes its exception type instead.  The solves are:

* the benchmark's ``small`` pool at seed 1: for n = 1..8, 32 partitions
  ``part(n, s, 0.5, 2.0)``, s drawn by ``default_rng(1).integers(0, 2**31,
  size=(32, 8))``, 256 in all;
* ``part(n, s)`` of ROADMAP.md for n in 4, 8, 16, 64, 256 and s in 0..3;
* ``ratio_sweep.draw`` at (seed, lo) = (7, -8) and (11, -30) for i < N.

It prints one digest per group (the ``small`` pool, the ``part`` set and
each sweep row) and then one over all of them in that order.  Two checkouts
that print the same digest solve this set bit for bit alike; the group lines
say which part of it moved.

A last line, ``profile``, digests the profiles of the ``small`` pool: the
``float.hex`` of ``sample`` on the benchmark's grid, 2 001 points over +-8
a_max, and of both one-sided fluxes at every 50th point of it.  It is not
part of the total, so the total stays comparable across changes that only
touch the profile.

A last line after it, ``continuum``, also left out of the total, digests
``selfsim.continuum`` on three tables over [0, 1]: a(u) = u^2, 1/(u + 1/2)
and 0.6 + 0.4 sin(2 pi u) with a dead band |u - 1/2| <= 0.1.  For each it
takes the ``float.hex`` of every ``StudyRow`` field of
``convergence_study`` at 4, 8, 16, 32 and 64 cells, of
``minimize_variational_cost`` at 64 cells, and of ``variational_cost`` and
``euler_lagrange_residual`` at that minimiser.

Usage:
    python scripts/solve_digest.py [--draws N]
"""

import argparse
import hashlib
import math

import numpy as np
from ratio_sweep import draw
from selfsim import PhasePartition, solve_riemann
from selfsim.continuum import (
    DiffusionFunction,
    convergence_study,
    euler_lagrange_residual,
    minimize_variational_cost,
    variational_cost,
)

GRID_POINTS = 2001  # the benchmark's sample grid, +-8 a_max
GRID_HALFWIDTH_PER_A = 8.0
STUDY_CELLS = (4, 8, 16, 32, 64)


def part(n: int, s: int, lo: float = 0.2, hi: float = 2.0) -> tuple[float, float, PhasePartition]:
    rng = np.random.default_rng(s)
    cs = rng.uniform(lo, hi, n + 1)
    cs[rng.random(n + 1) < 0.2] = 0.0
    for k in range(1, n + 1):
        if cs[k] == cs[k - 1]:
            cs[k] = 0.5
    return 0.0, 1.0, PhasePartition(tuple(np.linspace(0.0, 1.0, n + 2).tolist()), tuple(cs.tolist()))


def small_pool() -> list[tuple[float, float, PhasePartition]]:
    seeds = np.random.default_rng(1).integers(0, 2**31, size=(32, 8))
    return [part(n, int(seeds[j, n - 1]), 0.5, 2.0) for j in range(32) for n in range(1, 9)]


def groups(draws: int):
    yield "small", small_pool()
    yield "part", (part(n, s) for n in (4, 8, 16, 64, 256) for s in range(4))
    for seed, lo in ((7, -8.0), (11, -30.0)):
        yield f"sweep {seed}, {lo:g}", (draw(seed, i, lo) for i in range(draws))


def record(u_minus: float, u_plus: float, partition: PhasePartition) -> str:
    try:
        sol = solve_riemann(u_minus, u_plus, partition)
    except Exception as exc:  # a refusal is part of the outcome
        return type(exc).__name__
    floats = [*sol.boundaries]
    for rec in sol.trace:
        floats += (rec.value, rec.grad_norm, rec.step_length)
    floats += (jump.rh_residual for jump in sol.jumps)
    return " ".join([*map(float.hex, floats), str(sol.iterations), sol.stop_reason])


def profile_record(u_minus: float, u_plus: float, partition: PhasePartition) -> str:
    profile = solve_riemann(u_minus, u_plus, partition).profile
    grid = GRID_HALFWIDTH_PER_A * max(partition.coefficients) * np.linspace(-1.0, 1.0, GRID_POINTS)
    floats = profile.sample(grid).tolist()
    for xi in grid[::50].tolist():
        floats += profile.flux_limits(xi)
    return " ".join(map(float.hex, floats))


def continuum_tables() -> list[DiffusionFunction]:
    def banded_sine(u: float) -> float:
        return 0.0 if abs(u - 0.5) <= 0.1 else 0.6 + 0.4 * math.sin(2.0 * math.pi * u)

    fns = (lambda u: u * u, lambda u: 1.0 / (u + 0.5), banded_sine)
    return [DiffusionFunction.from_callable(fn, 0.0, 1.0) for fn in fns]


def continuum_record(f: DiffusionFunction) -> str:
    floats: list[float] = []
    for row in convergence_study(f, STUDY_CELLS):
        floats += (row.cells, *row.partition.breakpoints, *row.partition.coefficients, *row.boundaries)
        floats += (*row.inverse.states, *row.inverse.positions, row.shifted_entropy, row.distance_to_finest)
    m = minimize_variational_cost(f, STUDY_CELLS[-1])
    floats += (*m.profile.states, *m.profile.positions, m.cost, m.grad_norm, m.iterations, m.converged)
    floats.append(variational_cost(f, m.profile))
    floats += euler_lagrange_residual(f, m.profile).tolist()
    return " ".join(map(float.hex, map(float, floats)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=1500, help="ratio-sweep draws per (seed, lo)")
    args = parser.parse_args()

    digest = hashlib.sha256()
    count = 0
    for name, problems in groups(args.draws):
        group = hashlib.sha256()
        size = 0
        for problem in problems:
            line = record(*problem).encode() + b"\n"
            group.update(line)
            digest.update(line)
            size += 1
        print(f"{group.hexdigest()}  ({size} solves, {name})")
        count += size
    print(f"{digest.hexdigest()}  ({count} solves)")

    profiles = hashlib.sha256()
    pool = small_pool()
    for problem in pool:
        profiles.update(profile_record(*problem).encode() + b"\n")
    print(f"{profiles.hexdigest()}  ({len(pool)} solves, profile)")

    studies = hashlib.sha256()
    tables = continuum_tables()
    for f in tables:
        studies.update(continuum_record(f).encode() + b"\n")
    print(f"{studies.hexdigest()}  ({len(tables)} tables, continuum)")


if __name__ == "__main__":
    main()
