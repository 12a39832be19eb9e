"""One worker process of a benchmark run.

It sets up (imports, generates the inputs from the seed, runs one untimed
warm-up operation), prints ``ready``, and with ``--setup-only`` exits there.
Otherwise it runs the workload as a closed loop with one client for the
given seconds, checks every output, and prints one JSON record of raw
latencies, which operations passed, the loop's wall time, failure reasons
and, with ``--trace 1``, per-layer trace aggregates.  ``run.py`` starts it and turns the record into metrics.

With ``--trace 1`` the run has two phases over the same inputs: the first
half of the seconds untraced, then the same operations again traced, so the
tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracer import Tracer, merge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_TIMEOUT_S = 60


def _import_selfsim():
    sys.path.insert(0, str(SRC))
    import selfsim

    if Path(selfsim.__file__).resolve().parent != (SRC / "selfsim").resolve():
        raise ImportError(f"selfsim resolved to {selfsim.__file__}, not the checkout's src/")
    return selfsim


def _nonfinite_arcs(profile) -> int | None:
    """Arcs whose stored numbers (other than the +-inf ends) are not finite.

    None when the profile no longer stores its arcs as dataclass ``pieces``;
    the metric is then reported as absent.
    """
    count = 0
    try:
        for piece in profile.pieces:
            if not hasattr(piece, "coefficient"):
                continue
            fields = dataclasses.fields(piece)
            values = [getattr(piece, f.name) for f in fields if f.name not in ("lo", "hi")]
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                count += 1
    except (AttributeError, TypeError):
        return None
    return count


class Failures:
    def __init__(self) -> None:
        self.reasons: Counter[str] = Counter()
        self.examples: dict[str, str] = {}

    def add(self, reason: str, detail: str = "") -> None:
        self.reasons[reason] += 1
        self.examples.setdefault(reason, detail)


class Loop:
    """What one timed loop saw: per-operation latency and pass flag, wall time."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.passed: list[bool] = []
        self.wall_s = 0.0
        self.nonfinite_arcs: int | None = 0

    def add(self, seconds: float, error, failures: Failures) -> None:
        self.latencies_ms.append(seconds * 1e3)
        self.passed.append(not error)
        if error:
            failures.add(*error)


class InProcess:
    """``small``, ``small-mix`` and ``wide``: solve_riemann + profile.sample per operation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.params, self.input, self.warmup = workloads.IN_PROCESS[workload]
        self.seed = seed

    def setup(self) -> None:
        _import_selfsim()
        from selfsim import api, problem

        self.api, self.problem = api, problem
        self.unit_grid = np.linspace(-1.0, 1.0, workloads.GRID_POINTS)
        self.input(self.seed, 0)  # generates the input pool of ``small``
        self.op(self.warmup())

    def op(self, inp: workloads.SolveInput):
        """One timed operation: (seconds, solution or None, samples, failure reason)."""
        partition = self.problem.PhasePartition(inp.breakpoints, inp.coefficients)
        grid = inp.grid_halfwidth * self.unit_grid
        t0 = perf_counter()
        try:
            solution = self.api.solve_riemann(inp.u_minus, inp.u_plus, partition)
            samples = solution.profile.sample(grid)
        except Exception as exc:  # counted as a failed operation with its type
            return perf_counter() - t0, None, None, (f"exception:{type(exc).__name__}", repr(exc))
        return perf_counter() - t0, solution, samples, None

    def loop(self, deadline: float | None, count: int | None, failures: Failures, trace: bool):
        """Run operations until the deadline or count; return a ``Loop``."""
        out = Loop()
        t_start = perf_counter()
        i = 0
        while (i < count) if count is not None else (perf_counter() < deadline):
            inp = self.input(self.seed, i)
            dt, solution, samples, error = self.op(inp)
            if error is None:
                failure = checks.check_solution(inp, solution, samples)
                error = failure and (failure[0], f"operation {i}: {failure[1]}")
                if trace and out.nonfinite_arcs is not None:
                    arcs = _nonfinite_arcs(solution.profile)
                    out.nonfinite_arcs = None if arcs is None else out.nonfinite_arcs + arcs
            out.add(dt, error, failures)
            i += 1
        out.wall_s = perf_counter() - t_start
        return out

    def context(self) -> dict:
        return {"generator": self.params, "grid_points": workloads.GRID_POINTS,
                "grid_halfwidth": "8 * max(coefficients)"}


class Cli:
    """``cli``: a fresh ``python -m selfsim.cli`` process per operation."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SELFSIM_ORACLE_THREADS", None)  # the default thread setting

    def setup(self) -> None:
        self.table_params = workloads.write_cli_inputs(self.seed, self.workdir)
        self.run_command("solve", traced=None)

    def run_command(self, command: str, traced: Path | None):
        for old in self.workdir.glob(f"{command}_*.csv"):
            old.unlink()
        args = [command, "--config", f"{command}.cfg", "--out", f"{command}_"]
        if traced is None:
            argv = [sys.executable, "-m", "selfsim.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced), *args]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, ("timeout", command)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            return dt, (f"exit:{proc.returncode}", proc.stderr.strip()[-300:])
        failure = checks.check_cli_output(
            command, self.workdir / f"{command}_", workloads.README_STATES, workloads.DEFAULT_CELLS
        )
        return dt, ((failure[0], f"{command}: {failure[1]}") if failure else None)

    def loop(self, deadline: float | None, count: int | None, failures: Failures, trace: bool):
        """Run operations until the deadline or count; return a ``Loop``."""
        out = Loop()
        t_start = perf_counter()
        commands = workloads.CLI["commands"]
        i = 0
        while (i < count) if count is not None else (perf_counter() < deadline):
            command = commands[i % len(commands)]
            traced = self.workdir / f"trace-{i}.json" if trace else None
            out.add(*self.run_command(command, traced), failures)
            i += 1
        out.wall_s = perf_counter() - t_start
        return out

    def context(self) -> dict:
        return {"generator": workloads.CLI, "table": self.table_params}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=(*workloads.IN_PROCESS, "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "cli":
        runner = Cli(args.seed, args.workdir)
    else:
        runner = InProcess(args.workload, args.seed)
    runner.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    failures = Failures()
    record: dict = {}
    if args.trace:
        untraced = runner.loop(perf_counter() + args.seconds / 2, None, failures, False)
        count = len(untraced.latencies_ms)
        if isinstance(runner, Cli):
            # each traced process installs its own tracer and leaves a snapshot
            traced = runner.loop(None, count, failures, True)
            paths = sorted(args.workdir.glob("trace-*.json"))
            snapshot = merge(json.loads(p.read_text(encoding="utf-8")) for p in paths)
        else:
            tracer = Tracer()
            tracer.install()
            traced = runner.loop(None, count, failures, True)
            snapshot = tracer.snapshot()
        record.update(
            latencies_ms=untraced.latencies_ms, traced_ms=traced.latencies_ms, trace=snapshot,
            nonfinite_arcs=traced.nonfinite_arcs,
        )
    else:
        timed = runner.loop(perf_counter() + args.seconds, None, failures, False)
        record.update(latencies_ms=timed.latencies_ms, passed=timed.passed, loop_s=timed.wall_s)
    if isinstance(runner, Cli):
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(
        attempted=len(record["latencies_ms"]) + len(record.get("traced_ms", ())),
        failed=sum(failures.reasons.values()),
        reasons=dict(failures.reasons),
        examples=failures.examples,
        peak_rss_kb=peak_kb,
        context=runner.context(),
        versions={pkg: metadata.version(pkg) for pkg in ("numpy", "scipy")},
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
