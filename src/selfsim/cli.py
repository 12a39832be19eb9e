"""Command-line surface: parse configs, run workflows, emit CSV artifacts.

Config files are UTF-8 lines of ``key = value`` with ``#`` comments and
bracketed comma-separated lists.  All numeric CSV output uses the shortest
round-trip decimal representation of the double value, so identical inputs
produce byte-identical files.

Exit codes: 0 success; 1 invalid problem or non-convergence; 2 unusable
config, arguments or diffusion table, or unwritable output; 3 unexpected
internal failure.  Whatever the failure, every output file the failed run
began to write is removed.

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
    """A parsed config: each field but ``command`` and ``out_prefix`` is the key of that name."""

    command: str
    out_prefix: str = ""
    u_minus: float | None = None
    u_plus: float | None = None
    breakpoints: tuple[float, ...] | None = None  # the interior ones
    coefficients: tuple[float, ...] | None = None
    t: float = 1.0
    dx: tuple[float, ...] = (0.02, 0.01)
    cells: tuple[int, ...] = (2, 4, 8, 16, 32)
    diffusion: str | None = None


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
    _, _, required, optional = _COMMANDS[command]
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
        if key not in required and key not in optional:
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
    for key in required:
        if key not in seen:
            raise ConfigError(f"missing required key '{key}' for command '{command}'")
    if "coefficients" in seen:
        bps = seen["breakpoints"]
        cs = seen["coefficients"]
        if len(cs) != len(bps) + 1:
            raise ConfigError(
                f"coefficients has {len(cs)} entries but breakpoints has {len(bps)}; "
                f"need len(breakpoints) + 1 = {len(bps) + 1}"
            )
    return RunConfig(command, out_prefix, **seen)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _solve_from_config(config: RunConfig) -> RiemannSolution:
    lo = min(config.u_minus, config.u_plus)
    hi = max(config.u_minus, config.u_plus)
    partition = PhasePartition(
        breakpoints=(lo,) + tuple(config.breakpoints) + (hi,),
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


# each _cmd_* takes the config and yields its tables, (name, header, rows),
# which ``run`` writes to {out_prefix}{name}.csv


def _cmd_solve(config: RunConfig):
    solution = _solve_from_config(config)
    yield "boundaries", ("slot", "xi", "classification", "residual"), (
        (rec.slot, rec.location, rec.classification, rec.rh_residual) for rec in solution.jumps
    )
    yield "profile", ("xi", "v"), _profile_rows(solution.profile, _plot_halfwidth(solution), 1.0)
    yield "trace", ("iteration", "value", "grad_norm", "step_length"), (
        (i, rec.value, rec.grad_norm, rec.step_length) for i, rec in enumerate(solution.trace)
    )


def _cmd_evaluate(config: RunConfig):
    solution = _solve_from_config(config)
    scale = math.sqrt(config.t)
    rows = _profile_rows(solution.profile, _plot_halfwidth(solution) * scale, scale)
    yield "evaluate", ("t", "x", "u"), ((config.t, x, v) for x, v in rows)


def _cmd_validate(config: RunConfig):
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
    for dx in config.dx:
        fd = fd_solve(solution.problem, config.t, dx)
        dist = compare_profiles(fd, profile)
        rows.append((dx, fd.steps, dist.l1, dist.l1_relative, dist.linf_away_from_jumps))
    yield "validate", ("dx", "steps", "l1", "l1_relative", "linf_away_from_jumps"), rows


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


def _read_diffusion_table(path: str) -> DiffusionFunction:
    from .continuum import DiffusionFunction  # loaded for the continuum command alone

    text = _read_text(path, "diffusion table")
    states: list[float] = []
    values: list[float] = []
    for line_no, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, a = map(float, line.split(","))
        except ValueError:  # not two fields, or one not a number
            raise ConfigError(f"{path}:{line_no}: expected 'u, a' with two numbers") from None
        if a < 0.0:
            raise ConfigError(f"{path}:{line_no}: diffusion values must be nonnegative")
        states.append(u)
        values.append(a)
    try:
        return DiffusionFunction(states=tuple(states), values=tuple(values))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_continuum(config: RunConfig):
    from .continuum import convergence_study

    rows = convergence_study(_read_diffusion_table(config.diffusion), config.cells)
    yield "continuum", ("cells", "boundaries", "shifted_entropy", "distance_to_finest"), (
        (row.cells, len(row.boundaries), row.shifted_entropy, row.distance_to_finest)
        for row in rows
    )


_PROBLEM_KEYS = ("u_minus", "u_plus", "breakpoints", "coefficients")
# each command: its help line, the function that runs it, its required keys
# and its optional ones
_COMMANDS = {
    "solve": (
        "minimize the boundary objective and emit the profile", _cmd_solve, _PROBLEM_KEYS, ()
    ),
    "evaluate": ("sample u(t, x) of the solved problem", _cmd_evaluate, _PROBLEM_KEYS, ("t",)),
    "validate": (
        "cross-check the profile against direct integration",
        _cmd_validate,
        _PROBLEM_KEYS,
        ("t", "dx"),
    ),
    "continuum": (
        "refinement study for a tabulated diffusion function",
        _cmd_continuum,
        ("diffusion",),
        ("cells",),
    ),
}


def run(config: RunConfig) -> tuple[Path, ...]:
    """Execute one command; returns the written files, or removes them on failure.

    A path is recorded before its write begins, so a write that fails
    partway is removed too.
    """
    written: list[Path] = []
    try:
        for name, header, rows in _COMMANDS[config.command][1](config):
            path = Path(f"{config.out_prefix}{name}.csv")
            written.append(path)
            _write_csv(path, header, rows)
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
    for command, (help_line, *_) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", required=True, help="path to a key = value config file")
        sp.add_argument("--out", default="", help="output path prefix (default: working directory)")
    args = parser.parse_args(argv)
    try:
        written = run(parse_config(_read_text(args.config, "config"), args.command, args.out))
    except ConfigError as exc:  # a config or diffusion table that cannot be read or used
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
