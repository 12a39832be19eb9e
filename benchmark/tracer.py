"""Per-layer tracing of the selfsim package from outside the package.

``Tracer.install`` wraps the public functions of every selfsim module (and the
public methods of the classes listed in ``METHODS``) and rebinds each name
wherever a selfsim module holds a reference to it, so calls between modules,
inside a module, and from the benchmark all pass through the wrapper.  The
package itself is not edited.

Two kinds of wrapper:

* span: a stack frame per call.  A key's self time is its duration minus the
  durations of the traced calls it made (the time its children cover); its
  layer time subtracts only children in other layers, so it also holds the
  same-layer helpers it calls (``jump_residuals`` holds ``limits``).
* count: for ``special``, which is called per interval per evaluation.  Only
  a call count and an aggregate time are kept, no frame is pushed, and calls
  that ``special`` makes into itself are not counted again.  The time is
  still taken out of the caller's self time.

Nothing is kept per call, so memory stays bounded however long a run is.
A function that a later version removes simply never appears in the stats;
``metrics.layer_metrics`` reports it as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "problem",
    "special",
    "entropy",
    "optimizer",
    "profile",
    "api",
    "oracle",
    "continuum",
    "cli",
)
COUNT_ONLY = frozenset({"special"})
# methods carry the profile's evaluation work; other classes are data holders
METHODS = {
    "profile": {
        "SelfSimilarProfile": ("segments", "jumps", "limits", "flux_limits", "sample", "mirrored"),
    },
}
BENCH = "bench"  # caller layer of calls made by the benchmark itself


class Tracer:
    """Aggregated spans of one process.

    ``stats[key] = [calls, total_ns, self_ns, layer_ns]``; summing ``self_ns``
    over a layer's keys gives the layer's self time without double counting.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.edges: dict[tuple[str, str], int] = defaultdict(int)  # (caller layer, key) -> calls
        self.extra: dict[str, float] = defaultdict(float)  # counts read off results
        self.top_ns = 0  # time inside calls made by the benchmark (coverage)
        self.installed: list[str] = []  # keys of the functions that exist and were wrapped
        self._stack: list[list] = []  # [layer, child_ns, other_layer_child_ns]
        self._in_count = False
        self._hooks = {
            "optimizer.minimize": _minimize_hook,
            "oracle.fd_solve": _fd_hook,
            "continuum.convergence_study": _study_hook,
            "cli.run": _cli_run_hook,
        }

    def install(self) -> None:
        """Wrap every layer module that imports; rebind references package-wide."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"selfsim.{layer}")
            except ImportError:
                continue  # a layer a later version removed
            for name, obj in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(layer, f"{layer}.{meth}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "selfsim" and not mod_name.startswith("selfsim."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, layer: str, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0, 0, 0])
        self.installed.append(key)
        stack = self._stack
        if layer in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._in_count:
                    return fn(*args, **kwargs)
                self._in_count = True
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter_ns() - t0
                    self._in_count = False
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur
                    stats[3] += dur
                    if stack:
                        stack[-1][1] += dur
                        stack[-1][2] += dur
                    else:
                        self.top_ns += dur

            return counted

        hook = self._hooks.get(key)
        intervals = layer == "entropy"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            caller = stack[-1][0] if stack else BENCH
            frame = [layer, 0, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                own = dur - frame[1]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                stats[3] += dur - frame[2]
                self.edges[(caller, key)] += 1
                if stack:
                    stack[-1][1] += dur
                    if caller != layer:
                        stack[-1][2] += dur
                else:
                    self.top_ns += dur
                if intervals:
                    _interval_count(self, args, own)
            if hook is not None:
                hook(self, result)
            return result

        return spanned

    def snapshot(self) -> dict:
        """Plain-data copy, for merging across processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "edges": [[c, k, n] for (c, k), n in self.edges.items()],
            "extra": dict(self.extra),
            "top_ns": self.top_ns,
            "installed": sorted(self.installed),
        }


def merge(snapshots) -> dict:
    """Sum several ``Tracer.snapshot`` records."""
    stats: dict[str, list[int]] = {}
    edges: dict[tuple[str, str], int] = defaultdict(int)
    extra: dict[str, float] = defaultdict(float)
    top = 0
    installed: set[str] = set()
    for snap in snapshots:
        installed.update(snap["installed"])
        for key, vals in snap["stats"].items():
            acc = stats.setdefault(key, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += vals[i]
        for caller, key, n in snap["edges"]:
            edges[(caller, key)] += n
        for key, val in snap["extra"].items():
            extra[key] += val
        top += snap["top_ns"]
    return {
        "stats": stats,
        "edges": [[c, k, n] for (c, k), n in edges.items()],
        "extra": dict(extra),
        "top_ns": top,
        "installed": sorted(installed),
    }


def _interval_count(tracer: Tracer, args, own_ns: int) -> None:
    # entropy calls that take a problem loop over its n + 1 intervals
    partition = getattr(args[0], "partition", None) if args else None
    coefficients = getattr(partition, "coefficients", None)
    if coefficients is not None:
        tracer.extra["entropy.interval_evals"] += len(coefficients)
        tracer.extra["entropy.interval_self_ns"] += own_ns


def _minimize_hook(tracer: Tracer, result) -> None:
    iterations = getattr(result, "iterations", None)
    converged = getattr(result, "converged", None)
    if iterations is not None:
        tracer.extra["optimizer.newton_iters"] += iterations
    if converged is not None:
        tracer.extra["optimizer.minimize_runs"] += 1
        tracer.extra["optimizer.not_converged"] += not converged


# Bytes the explicit FD step reads and writes per cell, counted from the numpy
# expressions of oracle.fd_solve: np.interp reads u and writes av (16), then
# 2*av, av - t, t + av, lam*t and u += t each read and write whole arrays
# (16 + 24 + 24 + 16 + 24).  A computed count, not a bandwidth measurement.
FD_BYTES_PER_CELL_STEP = 120


def _fd_hook(tracer: Tracer, result) -> None:
    cells = getattr(result, "cells", None)
    steps = getattr(result, "steps", None)
    if cells is not None and steps is not None:
        tracer.extra["oracle.fd_solve.cell_steps"] += int(cells.size) * int(steps)


def _study_hook(tracer: Tracer, result) -> None:
    tracer.extra["continuum.solves"] += len(result)


def _cli_run_hook(tracer: Tracer, result) -> None:
    for path in result:
        tracer.extra["cli.bytes_written"] += path.stat().st_size
