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

``--oracle`` adds a forward-error column: for each column with a solve
(balanced, above, not converged), how many of its solves have boundaries
more than 1e-12 a_max from the 50-digit minimiser of
``tests/boundary_oracle.py`` (needs mpmath), and the worst such distance;
"no oracle" counts the solves where that minimiser raised.

Usage:
    python scripts/ratio_sweep.py --seed 7 --lo -8 --draws 3000 [--oracle]
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from selfsim import PhasePartition, RiemannSolution, solve_riemann
from selfsim.problem import InvalidPartitionError

FORWARD_BOUND = 1e-12  # forward errors above this many a_max are counted


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


def outcome(u_minus: float, u_plus: float, partition: PhasePartition) -> tuple[str, RiemannSolution | None]:
    """The draw's column, and its solve where there is one."""
    try:
        sol = solve_riemann(u_minus, u_plus, partition)
    except InvalidPartitionError:
        return "refused", None
    except Exception as exc:  # any other error is a defect: count it by type
        return f"other {type(exc).__name__}", None
    if not sol.converged:
        return f"not converged {sol.stop_reason}", sol
    worst = max((abs(rec.rh_residual) for rec in sol.jumps), default=0.0)
    return ("balanced" if worst <= 1e-9 * max(partition.coefficients) else "above"), sol


def forward_errors(solves: list[tuple[str, RiemannSolution]]) -> str:
    """The forward-error cell: per column, the count above FORWARD_BOUND and the worst."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from boundary_oracle import forward_error

    worst: dict[str, float] = {}
    above: Counter[str] = Counter()
    no_oracle = 0
    for label, sol in solves:
        column = "`converged=False`" if label.startswith("not converged") else label
        try:
            error = forward_error(sol)
        except AssertionError:  # the 50-digit Newton did not converge: no reference
            no_oracle += 1
            continue
        worst[column] = max(worst.get(column, 0.0), error)
        above[column] += error > FORWARD_BOUND
    cells = [
        f"{column} {above[column]} (worst {worst[column]:.2g})"
        for column in ("balanced", "above", "`converged=False`")
        if column in worst
    ]
    return "; ".join([*cells, f"no oracle {no_oracle}"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lo", type=float, default=-8.0, help="log10 of the smallest coefficient drawn")
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument(
        "--oracle", action="store_true", help="add the forward-error column (50-digit minimiser, needs mpmath)"
    )
    args = parser.parse_args()

    outcomes = [outcome(*draw(args.seed, i, args.lo)) for i in range(args.draws)]
    counts = Counter(label for label, _ in outcomes)
    stalled = {k.split()[-1]: v for k, v in counts.items() if k.startswith("not converged")}
    others = {k.split()[-1]: v for k, v in counts.items() if k.startswith("other")}

    def column(total: int, parts: dict[str, int]) -> str:
        inner = ", ".join(f"{v} `{k}`" for k, v in sorted(parts.items()))
        return f"{total} ({inner})" if parts else str(total)

    header = ["seed, lo", "balanced", "`converged=True` above", "`converged=False`", "refused", "other"]
    row = [
        f"{args.seed}, {args.lo:g}",
        str(counts["balanced"]),
        str(counts["above"]),
        column(sum(stalled.values()), stalled),
        str(counts["refused"]),
        column(sum(others.values()), others),
    ]
    if args.oracle:
        header.append(f"forward error > {FORWARD_BOUND:g}·a_max")
        row.append(forward_errors([(label, sol) for label, sol in outcomes if sol is not None]))
    for cells in (header, ["---"] * len(header), row):
        print(f"| {' | '.join(cells)} |")


if __name__ == "__main__":
    main()
