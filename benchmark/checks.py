"""Output checks.  Each returns None when the output passes, else (reason, detail).

The checks hold every operation to what the ROADMAP promises for any
admissible partition: a converged solve, a finite profile that is monotone
between the far-field states, and flux balance at every boundary.  No input
is filtered and no tolerance is widened for known defects; a failing
operation is counted with its reason, not dropped.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# |rh_residual| <= RESIDUAL_TOL * flux scale, where the flux scale
# a_max * |u_plus - u_minus| bounds the flux of a single arc spanning the states
RESIDUAL_TOL = 1e-9
# validate: relative L1 distance of the FD integration from the profile; the
# suite's FD convergence criterion uses the same bound
L1_RELATIVE_MAX = 0.02


def flux_scale(u_minus: float, u_plus: float, coefficients) -> float:
    return max(coefficients) * abs(u_plus - u_minus)


def _sample_reason(values: np.ndarray, u_minus: float, u_plus: float):
    if not np.all(np.isfinite(values)):
        return "nonfinite_sample", f"{int(np.sum(~np.isfinite(values)))} of {values.size}"
    lo, hi = min(u_minus, u_plus), max(u_minus, u_plus)
    outside = max(lo - float(np.min(values)), float(np.max(values)) - hi)
    if outside > 0.0:
        return "sample_outside_states", f"by {outside:.3g}"
    steps = np.diff(values) * (1.0 if u_plus > u_minus else -1.0)
    if np.any(steps < 0.0):
        return "sample_non_monotone", f"step {float(np.min(steps)):.3g} against the states"
    return None


def _residual_reason(residuals, scale: float):
    res = np.abs(np.asarray(residuals, dtype=float))
    if not np.all(np.isfinite(res)):
        return "nonfinite_residual", f"{int(np.sum(~np.isfinite(res)))} of {res.size} boundaries"
    if res.size and float(np.max(res)) > RESIDUAL_TOL * scale:
        return "residual_above_tol", f"{float(np.max(res)):.3g} > {RESIDUAL_TOL * scale:.3g}"
    return None


def check_solution(inp, solution, samples):
    """Checks of one in-process operation (``solve_riemann`` + ``sample``)."""
    if not solution.converged:
        return "not_converged", f"{getattr(solution, 'iterations', '?')} iterations"
    if not all(math.isfinite(b) for b in solution.boundaries):
        return "nonfinite_boundary", ""
    failure = _sample_reason(np.asarray(samples), inp.u_minus, inp.u_plus)
    if failure:
        return failure
    scale = flux_scale(inp.u_minus, inp.u_plus, inp.coefficients)
    return _residual_reason([rec.rh_residual for rec in solution.jumps], scale)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, column: str) -> np.ndarray:
    return np.array([float(row[column]) for row in rows])


def check_cli_output(command: str, prefix: Path, problem: dict, cells):
    """Checks of the CSV files one ``selfsim`` process wrote under ``prefix``."""
    if command not in ("solve", "validate", "continuum"):
        raise ValueError(f"unknown command {command!r}")
    try:
        if command == "solve":
            bounds = _read_rows(Path(f"{prefix}boundaries.csv"))
            if not bounds or not np.all(np.isfinite(_floats(bounds, "xi"))):
                return "csv_nonfinite_boundary", ""
            scale = flux_scale(problem["u_minus"], problem["u_plus"], problem["coefficients"])
            failure = _residual_reason(_floats(bounds, "residual"), scale)
            if failure:
                return "csv_" + failure[0], failure[1]
            profile = _read_rows(Path(f"{prefix}profile.csv"))
            failure = _sample_reason(_floats(profile, "v"), problem["u_minus"], problem["u_plus"])
            if failure:
                return "csv_" + failure[0], failure[1]
            if not _read_rows(Path(f"{prefix}trace.csv")):
                return "csv_empty_trace", ""
        elif command == "validate":
            rows = _read_rows(Path(f"{prefix}validate.csv"))
            if not rows:
                return "csv_empty_validate", ""
            for col in ("l1", "l1_relative", "linf_away_from_jumps"):
                if not np.all(np.isfinite(_floats(rows, col))):
                    return "csv_nonfinite_" + col, ""
            worst = float(np.max(_floats(rows, "l1_relative")))
            if worst > L1_RELATIVE_MAX:
                return "csv_l1_relative_above_bound", f"{worst:.3g} > {L1_RELATIVE_MAX}"
        else:
            rows = _read_rows(Path(f"{prefix}continuum.csv"))
            if [int(row["cells"]) for row in rows] != list(cells):
                return "csv_cells_mismatch", ""
            if any(int(row["boundaries"]) < 1 for row in rows):
                return "csv_no_boundaries", ""
            dist = _floats(rows, "distance_to_finest")
            if not (np.all(np.isfinite(_floats(rows, "shifted_entropy"))) and np.all(np.isfinite(dist))):
                return "csv_nonfinite_value", ""
            if np.any(dist < 0.0) or dist[-1] != 0.0:
                return "csv_bad_distance", ""
    except (OSError, KeyError, ValueError) as exc:
        return f"csv_unreadable:{type(exc).__name__}", str(exc)
    return None
