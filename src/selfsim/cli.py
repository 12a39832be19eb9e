"""Command-line surface: parse configs, run workflows, emit CSV artifacts.

Config files are UTF-8 lines of ``key = value`` with ``#`` comments and
bracketed comma-separated lists.  All numeric CSV output uses the shortest
round-trip decimal representation of the double value, so identical inputs
produce byte-identical files.

Exit codes: 0 success; 1 invalid problem or non-convergence; 2 unusable
config, arguments or diffusion table, or unwritable output; 3 unexpected
internal failure.  Whatever the failure, already-written output files of
the failed run are removed.

Each command loads only the modules it runs.  ``solve`` and ``evaluate``
load the solve path alone (problem, special, entropy, optimizer, profile,
api), on Python floats.  ``continuum`` adds ``selfsim.continuum``, still
without numpy; ``validate`` adds numpy and the FD oracle.  A ``validate``
that loads numpy first sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is set: nothing here makes a threaded BLAS call, and starting OpenBLAS's
thread pool doubled numpy's import.  The package's records are NamedTuples,
which take next to no start-up time to define.

A ``selfsim`` or ``python -m selfsim.cli`` process runs ``process_main``:
after ``main`` returns, it flushes stdout and stderr and leaves by
``os._exit``, skipping the interpreter's teardown (about 20 ms once numpy
is loaded), so atexit handlers do not run.  ``main`` itself returns its
exit code to in-process callers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from .api import RiemannSolution, solve_riemann
from .problem import PhasePartition
from .profile import SelfSimilarProfile, _linspace

if TYPE_CHECKING:
    from .continuum import DiffusionFunction

_PROFILE_POINTS = 2001


class ConfigError(ValueError):
    """Unusable configuration text or argument."""


class RunConfig(NamedTuple):
    command: str
    out_prefix: str = ""
    u_minus: float | None = None
    u_plus: float | None = None
    interior_breakpoints: tuple[float, ...] | None = None
    coefficients: tuple[float, ...] | None = None
    t_final: float = 1.0
    dx_values: tuple[float, ...] = (0.02, 0.01)
    cell_counts: tuple[int, ...] = (2, 4, 8, 16, 32)
    diffusion_path: str | None = None


# the RunConfig field of each config key whose name differs from it
_FIELDS = {
    "breakpoints": "interior_breakpoints",
    "t": "t_final",
    "dx": "dx_values",
    "cells": "cell_counts",
    "diffusion": "diffusion_path",
}
_PROBLEM_KEYS = ("u_minus", "u_plus", "breakpoints", "coefficients")
_ALLOWED_KEYS = {
    "solve": _PROBLEM_KEYS,
    "evaluate": _PROBLEM_KEYS + ("t",),
    "validate": _PROBLEM_KEYS + ("t", "dx"),
    "continuum": ("diffusion", "cells"),
}
_REQUIRED_KEYS = {
    "solve": _PROBLEM_KEYS,
    "evaluate": _PROBLEM_KEYS,
    "validate": _PROBLEM_KEYS,
    "continuum": ("diffusion",),
}


def _parse_scalar(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}' expects a number, got '{raw}'") from None


def _parse_list(raw: str, line: int, key: str, cast) -> tuple:
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigError(f"line {line}: key '{key}' expects a bracketed list like [1, 2]")
    body = raw[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(cast(item.strip()) for item in body.split(","))
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}' has a malformed list entry") from None


def parse_config(text: str, command: str, out_prefix: str = "") -> RunConfig:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    allowed = _ALLOWED_KEYS[command]
    seen: dict[str, object] = {}
    for line_no, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not eq or not key:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        if key not in allowed:
            raise ConfigError(f"line {line_no}: unknown key '{key}' for command '{command}'")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        if key in ("u_minus", "u_plus", "t"):
            value: object = _parse_scalar(raw, line_no, key)
            if key == "t" and not 0.0 < value < math.inf:
                raise ConfigError(f"line {line_no}: key '{key}' must be positive and finite")
        elif key in ("breakpoints", "coefficients", "dx"):
            value = _parse_list(raw, line_no, key, float)
            if key == "dx" and (not value or any(not 0.0 < d < math.inf for d in value)):
                raise ConfigError(f"line {line_no}: key 'dx' needs positive entries, all finite")
        elif key == "cells":
            value = _parse_list(raw, line_no, key, int)
            if not value or any(c < 1 for c in value) or any(
                b <= a for a, b in zip(value, value[1:])
            ):
                raise ConfigError(
                    f"line {line_no}: key 'cells' needs strictly increasing positive counts"
                )
        else:  # diffusion: a path, kept verbatim
            value = raw
        seen[key] = value
    for key in _REQUIRED_KEYS[command]:
        if key not in seen:
            raise ConfigError(f"missing required key '{key}' for command '{command}'")
    if command != "continuum":
        bps = seen["breakpoints"]
        cs = seen["coefficients"]
        if len(cs) != len(bps) + 1:
            raise ConfigError(
                f"coefficients has {len(cs)} entries but breakpoints has {len(bps)}; "
                f"need len(breakpoints) + 1 = {len(bps) + 1}"
            )
    return RunConfig(
        command=command,
        out_prefix=out_prefix,
        **{_FIELDS.get(key, key): value for key, value in seen.items()},
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows, written: list[Path]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)


def _solve_from_config(config: RunConfig) -> RiemannSolution:
    lo = min(config.u_minus, config.u_plus)
    hi = max(config.u_minus, config.u_plus)
    partition = PhasePartition(
        breakpoints=(lo,) + tuple(config.interior_breakpoints) + (hi,),
        coefficients=tuple(config.coefficients),
    )
    solution = solve_riemann(config.u_minus, config.u_plus, partition)
    if not solution.converged:
        raise RuntimeError(f"boundary solve did not converge (stopped on {solution.stop_reason})")
    return solution


def _plot_halfwidth(solution: RiemannSolution) -> float:
    # 10 a_max past the outermost boundary, where the slowest tail has
    # erfc(5) ~ 1.5e-12 of its jump left; with no boundary, at least 1
    b = solution.profile.boundaries
    a_max = max(solution.profile.coefficients)
    return 1.2 * (10.0 * a_max + max(map(abs, b)) if b else max(1.0, 10.0 * a_max))


def _profile_rows(profile: SelfSimilarProfile, halfwidth: float, scale: float):
    # (x, v(x / scale)) on np.linspace(-halfwidth, halfwidth, _PROFILE_POINTS),
    # each point's right limit, as ``sample`` takes it
    for x in _linspace(-halfwidth, halfwidth, _PROFILE_POINTS):
        yield x, profile.limits(x / scale)[1]


def _cmd_solve(config: RunConfig, out: str, written: list[Path]) -> None:
    solution = _solve_from_config(config)
    _write_csv(
        Path(f"{out}boundaries.csv"),
        ("slot", "xi", "classification", "residual"),
        (
            (rec.slot, rec.location, rec.classification, rec.rh_residual)
            for rec in solution.jumps
        ),
        written,
    )
    _write_csv(
        Path(f"{out}profile.csv"),
        ("xi", "v"),
        _profile_rows(solution.profile, _plot_halfwidth(solution), 1.0),
        written,
    )
    _write_csv(
        Path(f"{out}trace.csv"),
        ("iteration", "value", "grad_norm", "step_length"),
        (
            (i, rec.value, rec.grad_norm, rec.step_length)
            for i, rec in enumerate(solution.trace)
        ),
        written,
    )


def _cmd_evaluate(config: RunConfig, out: str, written: list[Path]) -> None:
    solution = _solve_from_config(config)
    scale = math.sqrt(config.t_final)
    rows = _profile_rows(solution.profile, _plot_halfwidth(solution) * scale, scale)
    _write_csv(
        Path(f"{out}evaluate.csv"),
        ("t", "x", "u"),
        ((config.t_final, x, v) for x, v in rows),
        written,
    )


def _cmd_validate(config: RunConfig, out: str, written: list[Path]) -> None:
    if "numpy" not in sys.modules:
        # nothing here uses a BLAS thread pool, and starting one doubles numpy's import
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .oracle import compare_profiles, fd_solve  # numpy, loaded for this command alone

    solution = _solve_from_config(config)
    # the integrator runs in the solver frame (increasing states)
    profile = (
        solution.profile.mirrored()
        if solution.problem.orientation_flipped
        else solution.profile
    )
    rows = []
    for dx in config.dx_values:
        fd = fd_solve(solution.problem, config.t_final, dx)
        dist = compare_profiles(fd, profile)
        rows.append((dx, fd.steps, dist.l1, dist.l1_relative, dist.linf_away_from_jumps))
    _write_csv(
        Path(f"{out}validate.csv"),
        ("dx", "steps", "l1", "l1_relative", "linf_away_from_jumps"),
        rows,
        written,
    )


def _read_diffusion_table(path: str) -> DiffusionFunction:
    from .continuum import DiffusionFunction  # loaded for the continuum command alone

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read diffusion table: {exc}") from None
    states: list[float] = []
    values: list[float] = []
    for line_no, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            u, a = (float(parts[0]), float(parts[1])) if len(parts) == 2 else (None, None)
        except ValueError:
            u = None
        if u is None:
            raise ConfigError(f"{path}:{line_no}: expected 'u, a' with two numbers")
        if a < 0.0:
            raise ConfigError(f"{path}:{line_no}: diffusion values must be nonnegative")
        states.append(u)
        values.append(a)
    try:
        return DiffusionFunction(states=tuple(states), values=tuple(values))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_continuum(config: RunConfig, out: str, written: list[Path]) -> None:
    from .continuum import convergence_study

    f = _read_diffusion_table(config.diffusion_path)
    rows = convergence_study(f, config.cell_counts)
    _write_csv(
        Path(f"{out}continuum.csv"),
        ("cells", "boundaries", "shifted_entropy", "distance_to_finest"),
        (
            (row.cells, len(row.boundaries), row.shifted_entropy, row.distance_to_finest)
            for row in rows
        ),
        written,
    )


# each command: its help line and the function that runs it
_COMMANDS = {
    "solve": ("minimize the boundary objective and emit the profile", _cmd_solve),
    "evaluate": ("sample u(t, x) of the solved problem", _cmd_evaluate),
    "validate": ("cross-check the profile against direct integration", _cmd_validate),
    "continuum": ("refinement study for a tabulated diffusion function", _cmd_continuum),
}


def run(config: RunConfig) -> tuple[Path, ...]:
    """Execute one command; returns the written files, or removes them on failure."""
    out = config.out_prefix
    written: list[Path] = []
    try:
        _COMMANDS[config.command][1](config, out, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return tuple(written)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar step-data solver for piecewise-constant diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", required=True, help="path to a key = value config file")
        sp.add_argument("--out", default="", help="output path prefix (default: working directory)")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, args.command, out_prefix=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        written = run(config)
    except ConfigError as exc:  # a diffusion table that cannot be read or used
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads raise ConfigError, so this is a failed write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


def process_main() -> NoReturn:
    """Run ``main`` on this process's arguments, flush, and ``os._exit``.

    The entry of ``python -m selfsim.cli`` and of the ``selfsim`` script
    (see the module docstring).  A flush that fails exits 120, as the
    interpreter's own exit does, without its "Exception ignored" report.  A
    stream is None where its descriptor was closed at start-up.
    """
    code = main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    process_main()
