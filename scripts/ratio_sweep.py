"""Sweep random partitions with coefficient ratios up to 10^-lo and print one table row.

Draw i takes ``rng = np.random.default_rng([seed, i])``: n in 1..6, n + 1
coefficients 10^U(lo, 0), each zeroed with probability 0.2 (a zero after a
zero becomes 0.5, and an all-zero draw sets the first to 1), breakpoints 0,
n sorted U(0, 1) draws and 1, and the states 0 -> 1 or 1 -> 0 with
probability 1/2 each.  Each solve lands in one column:

* balanced: converged, with max |rh_residual| <= 1e-9 a_max;
* above: converged, with a residual above that;
* not converged: ``converged=False``, with its stop reasons;
* refused: an ``InvalidPartitionError``, which names the coefficient;
* other: any other exception.

Usage:
    python scripts/ratio_sweep.py --seed 7 --lo -8 --draws 3000
"""

import argparse
from collections import Counter

import numpy as np

from selfsim import PhasePartition, solve_riemann
from selfsim.problem import InvalidPartitionError


def draw(seed: int, i: int, lo: float) -> tuple[float, float, PhasePartition]:
    rng = np.random.default_rng([seed, i])
    n = int(rng.integers(1, 7))
    cs = 10.0 ** rng.uniform(lo, 0.0, n + 1)
    cs[rng.random(n + 1) < 0.2] = 0.0
    for k in range(1, n + 1):
        if cs[k] == 0.0 and cs[k - 1] == 0.0:
            cs[k] = 0.5
    if not cs.any():
        cs[0] = 1.0
    breakpoints = (0.0, *sorted(rng.uniform(0.0, 1.0, n).tolist()), 1.0)
    states = (0.0, 1.0) if rng.random() < 0.5 else (1.0, 0.0)
    return (*states, PhasePartition(breakpoints, tuple(cs.tolist())))


def outcome(u_minus: float, u_plus: float, partition: PhasePartition) -> str:
    try:
        sol = solve_riemann(u_minus, u_plus, partition)
    except InvalidPartitionError:
        return "refused"
    except Exception as exc:  # any other error is a defect: count it by type
        return f"other {type(exc).__name__}"
    if not sol.converged:
        return f"not converged {sol.stop_reason}"
    worst = max((abs(rec.rh_residual) for rec in sol.jumps), default=0.0)
    return "balanced" if worst <= 1e-9 * max(partition.coefficients) else "above"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lo", type=float, default=-8.0, help="log10 of the smallest coefficient drawn")
    parser.add_argument("--draws", type=int, default=3000)
    args = parser.parse_args()

    counts = Counter(outcome(*draw(args.seed, i, args.lo)) for i in range(args.draws))
    stalled = {k.split()[-1]: v for k, v in counts.items() if k.startswith("not converged")}
    others = {k.split()[-1]: v for k, v in counts.items() if k.startswith("other")}

    def column(total: int, parts: dict[str, int]) -> str:
        inner = ", ".join(f"{v} `{k}`" for k, v in sorted(parts.items()))
        return f"{total} ({inner})" if parts else str(total)

    print("| seed, lo | balanced | `converged=True` above | `converged=False` | refused | other |")
    print("| --- | --- | --- | --- | --- | --- |")
    print(
        f"| {args.seed}, {args.lo:g} | {counts['balanced']} | {counts['above']} "
        f"| {column(sum(stalled.values()), stalled)} | {counts['refused']} "
        f"| {column(sum(others.values()), others)} |"
    )


if __name__ == "__main__":
    main()
