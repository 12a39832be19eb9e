"""Benchmark of selfsim: run one workload from a seed, check it, print its metrics.

    python3 benchmark/run.py --workload small --seed 1 --seconds 50 --trace 0

Workloads (closed loops, one client, one process at a time):

* ``small``: in-process ``solve_riemann`` + ``profile.sample`` on the
  ROADMAP's ``part(n, s)`` recipe with n = 1..8 and coefficients in [0.5, 2].
* ``small-mix``: the same operation on small, high-contrast random
  partitions (n = 1..16, either orientation).
* ``wide``: the same operation on the ROADMAP's ``part(1024, s)`` partitions.
* ``cli``: a fresh ``python -m selfsim.cli`` process per operation, cycling
  ``solve``, ``validate`` and ``continuum``.

The run starts a worker process several times to measure set-up, then once
more for the timed loop; see ``worker.py``.  Human-readable lines come first
(metrics with sample counts, the failure breakdown, the run context); the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from metrics import end_to_end, failure_lines, per_layer
from workloads import IN_PROCESS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPS = 5  # set-up is measured this many times and reported as the median
IMPORT_REPS = 3
RUN_LIMIT_S = 170  # a whole run ends within this, whatever hangs
# cells of the validate run: 2 * (ceil(10 * max(a_max, 1) * sqrt(t) / dx) + 1) with
# a_max = 2, t = 1, dx = 0.025 (oracle.fd_solve's domain rule)
FD_CELLS = 1602


def _kill(proc: subprocess.Popen) -> None:
    # the worker leads its own process group, so this also ends any CLI child it runs
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        _kill(proc)
    proc.wait()


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed ``ready``, rest of its output)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        # the worker prints nothing before ``ready``; one that hangs is killed
        timer = threading.Timer(deadline - t0, _kill, (proc,))
        timer.start()
        try:
            ready_line = proc.stdout.readline()
        finally:
            timer.cancel()
        setup_s = perf_counter() - t0
        if ready_line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up (exit {proc.wait()})")
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return setup_s, out
    finally:
        _stop(proc)


def import_seconds(deadline: float) -> float:
    """Median wall time of ``import selfsim.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import selfsim.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
            timeout=max(deadline - perf_counter(), 0.0), check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def machine_context(record: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        **record["versions"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*IN_PROCESS, "cli"))
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "selfsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no selfsim sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    deadline = perf_counter() + RUN_LIMIT_S
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        base = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
            "--workdir", str(workdir),
        ]
        setup_times = [run_worker(base + ["--setup-only"], deadline)[0] for _ in range(SETUP_REPS - 1)]
        setup_s, out = run_worker(base, deadline)
        setup_times.append(setup_s)
        record = json.loads(out.strip().splitlines()[-1])
        import_s = import_seconds(deadline) if args.trace else None
    except (RuntimeError, OSError, ValueError, IndexError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}, seed {args.seed}, {seconds:g} s, trace {args.trace}")
    if args.trace:
        values, absent, lines = per_layer(args.workload, record, import_s)
        samples = {"traced_operations": len(record["traced_ms"]), "cli.import_s": IMPORT_REPS}
        names = spec["per_layer"]
        lines += [f"absent (removed from the program, reported as 0): {name}" for name in absent]
        lines += [f"{e['name']} = {values[e['name']]:.6g} {e['unit']}" for e in names]
    else:
        values, lines, samples = end_to_end(args.workload, record, setup_times)
        names = spec["end_to_end"]
    lines += failure_lines(record)
    machine = machine_context(record)
    context = {
        "seed": args.seed,
        "workload": args.workload,
        **record["context"],
        "samples": samples,
        "machine": machine,
        "fd_note": (
            f"the cli validate FD arrays hold {FD_CELLS} float64 cells ({FD_CELLS * 8 / 1024:.1f} KiB "
            f"each), far below the {machine['l3_cache']} L3 cache, so "
            "oracle.fd_solve.bytes_moved_computed is a computed count of the bytes the numpy "
            "expressions touch, not a bandwidth measurement"
        ),
    }
    for line in lines:
        print(line)
    print("context: " + json.dumps(context))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
