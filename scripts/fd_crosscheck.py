"""Cross-check solved profiles against direct integration of the PDE.

Integrates u_t = (a^2(u) u_x)_x from sharp step data with the explicit
conservative scheme and reports distances to the self-similar profile at
several resolutions, for one smooth and one degenerate problem.

Note on the degenerate case: the numerical front snaps to whole grid
cells, so front-dominated errors carry an O(dx)-amplitude sawtooth and
the L1 column shrinks in bursts rather than monotonically.  The sup
distance away from jumps and the front-position column settle cleanly.
"""

import argparse
import math

import numpy as np

from selfsim import PhasePartition, solve_riemann
from selfsim.oracle import compare_profiles, fd_solve


def front_error(fd, profile, t_final):
    """Distance from the first wet cell to the exact front, if any."""
    strong = [j for j in profile.jumps() if j.left != j.right]
    if not strong:
        return None
    x = fd.positions
    wet = np.flatnonzero(fd.cells > profile.left_state + 1e-6)
    return abs(x[wet[0]] - strong[0].location * math.sqrt(t_final))


def run_case(name, breakpoints, coefficients, t_final, dx_values):
    partition = PhasePartition(breakpoints=breakpoints, coefficients=coefficients)
    sol = solve_riemann(breakpoints[0], breakpoints[-1], partition)
    print(f"\n{name}: u={breakpoints} a={coefficients}, T={t_final}")
    print(f"  boundaries: {[round(b, 6) for b in sol.boundaries]}")
    print(
        f"  {'dx':>8} {'steps':>8} {'L1':>12} {'L1 rel':>12}"
        f" {'sup off jumps':>14} {'front err':>10}"
    )
    previous = None
    for dx in dx_values:
        fd = fd_solve(sol.problem, t_final, dx)
        dist = compare_profiles(fd, sol.profile)
        err = front_error(fd, sol.profile, t_final)
        front = f"{err:10.2e}" if err is not None else f"{'-':>10}"
        ratio = f"  (L1 ratio {previous / dist.l1:.2f})" if previous else ""
        print(
            f"  {dx:8.4f} {fd.steps:8d} {dist.l1:12.4e} {dist.l1_relative:12.4e}"
            f" {dist.linf_away_from_jumps:14.4e} {front}{ratio}"
        )
        previous = dist.l1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument(
        "--dx", type=lambda s: tuple(float(v) for v in s.split(",")), default=(0.04, 0.02, 0.01)
    )
    args = parser.parse_args()

    run_case("two smooth phases", (0.0, 1.0, 2.0), (1.0, 2.0), args.t_final, args.dx)
    run_case("degenerate left phase", (0.0, 1.0, 2.0), (0.0, 1.0), args.t_final, args.dx)


if __name__ == "__main__":
    main()
