"""Turn a worker's raw record into the named metrics of BENCHMARK.json."""

from __future__ import annotations

import math
import statistics

from tracer import FD_BYTES_PER_CELL_STEP, LAYERS
from workloads import CLI

# Fixed per workload, so a faster program does not move its tail to a higher
# percentile: the highest of 50/75/90/95/99 that leaves at least ten samples
# beyond it in a 50 s run at the seed commit (small ~8000-11000 operations,
# small-mix ~5000-8000, wide ~100-130, cli ~55-75).  Runs print how many
# samples lie beyond.
TAIL_PERCENTILE = {"small": 99.0, "small-mix": 99.0, "wide": 75.0, "cli": 75.0}


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def by_command(latencies: list[float], keep: list[bool] | None = None) -> dict[str, list[float]]:
    """cli latencies split by command (operation i ran ``commands[i % 3]``), only where ``keep``."""
    commands = CLI["commands"]
    keep = keep or [True] * len(latencies)
    return {
        c: [t for t, k in zip(latencies[j :: len(commands)], keep[j :: len(commands)]) if k]
        for j, c in enumerate(commands)
    }


def op_p50(workload: str, latencies: list[float], keep: list[bool] | None = None) -> float:
    if workload != "cli":
        return statistics.median(t for t, k in zip(latencies, keep or [True] * len(latencies)) if k)
    # cli cycles three commands of different cost; the median of the mixture
    # falls between two of them and jumps from run to run, so take the mean of
    # the per-command medians (one process of each kind)
    return statistics.fmean(statistics.median(v) for v in by_command(latencies, keep).values() if v)


def end_to_end(workload: str, record: dict, setup_s: list[float]) -> tuple[dict, list[str], dict]:
    """Metric values, printed lines, and the sample count behind each metric.

    Latencies are those of the operations that passed their checks, so an
    operation that fails early does not read as a fast one; only when none
    passed (``correct`` is then false) do they fall back to every operation.
    """
    lat, passed = record["latencies_ms"], record["passed"]
    n_pass = sum(passed)
    keep = passed if n_pass else [True] * len(lat)
    kept = [t for t, k in zip(lat, keep) if k]
    basis = "passing operations" if n_pass else "all operations, none passed"
    tail_p = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(kept, tail_p)
    p50 = op_p50(workload, lat, keep)
    values = {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "ops_per_s": n_pass / record["loop_s"],
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    lines = [
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setup_s)} set-ups)",
        f"op_ms_p50 = {p50:.4f} ms (n = {len(kept)} {basis}"
        + ("; mean of the per-command medians" if workload == "cli" else "") + ")",
        f"op_ms_tail = {tail:.4f} ms (p{tail_p:g}, n = {len(kept)} {basis}, {beyond} samples beyond"
        + ("; fewer than 10" if beyond < 10 else "") + ")",
        f"ops_per_s = {values['ops_per_s']:.4f} 1/s ({n_pass} passing operations"
        f" / {record['loop_s']:.3f} s wall time of the timed loop)",
        f"peak_rss_mb = {values['peak_rss_mb']:.2f} MB ("
        + ("largest child process" if workload == "cli" else "worker process") + ")",
    ]
    samples = {
        "setup_s": len(setup_s),
        "op_ms_p50": len(kept),
        "op_ms_tail": {"percentile": tail_p, "n": len(kept), "beyond": beyond},
        "ops_per_s": n_pass,
        "peak_rss_mb": 1,
    }
    if workload == "cli":
        for command, times in by_command(lat, keep).items():
            if not times:
                continue
            lines.append(f"cli_{command}_s = {statistics.median(times) / 1e3:.4f} s (median, n = {len(times)})")
            samples[f"cli_{command}_s"] = len(times)
    return values, lines, samples


def failure_lines(record: dict) -> list[str]:
    attempted, failed = record["attempted"], record["failed"]
    lines = [f"fail_frac = {failed / attempted:.4f} ({failed} failed / {attempted} attempted)"]
    for reason, count in sorted(record["reasons"].items(), key=lambda kv: -kv[1]):
        example = record["examples"].get(reason, "")
        lines.append(f"  {reason}: {count} ({count / attempted:.1%})  e.g. {example[:160]}")
    return lines


def per_layer(workload: str, record: dict, import_s: float) -> tuple[dict, list[str], list[str]]:
    """Per-operation layer metrics of the traced phase; absent names; share lines."""
    snap = record["trace"]
    stats = snap["stats"]
    extra = snap["extra"]
    installed = set(snap["installed"])
    edges: dict[tuple[str, str], int] = {(c, k): n for c, k, n in snap["edges"]}
    traced_ms = record["traced_ms"]
    ops = len(traced_ms)
    absent: list[str] = []

    def need(name: str, *keys: str) -> bool:
        missing = [k for k in keys if k not in installed]
        if missing:
            absent.append(f"{name} ({', '.join(missing)})")
        return not missing

    def calls(key: str) -> int:
        return stats.get(key, [0, 0, 0, 0])[0]

    def self_s(key: str) -> float:
        # a function's time minus its calls into other layers (see tracer.py)
        return stats.get(key, [0, 0, 0, 0])[3] / 1e9

    def layer_self_s(layer: str) -> float:
        return sum(v[2] for k, v in stats.items() if k.startswith(layer + ".")) / 1e9

    def layer_entries(layer: str) -> int:
        prefix = layer + "."
        if layer == "special":  # count-only wrappers count entries from outside already
            return sum(v[0] for k, v in stats.items() if k.startswith(prefix))
        return sum(n for (c, k), n in edges.items() if k.startswith(prefix) and c != layer)

    def per_op(x: float) -> float:
        return x / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["entropy.self_s"] = per_op(layer_self_s("entropy"))
    for short in ("value", "gradient", "hessian"):
        key = f"entropy.entropy_{short}"
        m[f"entropy.{short}.calls"] = per_op(calls(key)) if need(f"entropy.{short}.calls", key) else 0.0
    m["entropy.us_per_interval_eval"] = ratio(
        extra.get("entropy.interval_self_ns", 0.0) / 1e3, extra.get("entropy.interval_evals", 0.0)
    )
    m["special.calls"] = per_op(layer_entries("special"))
    m["special.self_s"] = per_op(layer_self_s("special"))

    iters = extra.get("optimizer.newton_iters", 0.0)
    trial = 0.0
    if need("optimizer.trial_evals", "entropy.entropy_value", "entropy.entropy_hessian"):
        trial = edges.get(("optimizer", "entropy.entropy_value"), 0) - edges.get(
            ("optimizer", "entropy.entropy_hessian"), 0
        )
    m["optimizer.newton_iters"] = per_op(iters)
    m["optimizer.trial_evals"] = per_op(trial)
    m["optimizer.step_accept_ratio"] = ratio(iters, trial)
    m["optimizer.not_converged"] = per_op(extra.get("optimizer.not_converged", 0.0))
    tridiag = "optimizer.solve_spd_tridiagonal"
    have_tridiag = need("optimizer.tridiag", tridiag)
    m["optimizer.tridiag.calls"] = per_op(calls(tridiag)) if have_tridiag else 0.0
    m["optimizer.tridiag.self_s"] = per_op(self_s(tridiag)) if have_tridiag else 0.0
    m["optimizer.self_s"] = per_op(layer_self_s("optimizer"))

    for name, key in (
        ("profile.build.self_s", "profile.build_profile"),
        ("profile.jump_residuals.self_s", "profile.jump_residuals"),
        ("profile.sample.self_s", "profile.sample"),
        ("profile.mirrored.self_s", "profile.mirrored"),
        ("api.solve_riemann.self_s", "api.solve_riemann"),
        ("oracle.fd_solve.self_s", "oracle.fd_solve"),
        ("oracle.compare_profiles.self_s", "oracle.compare_profiles"),
        ("continuum.convergence_study.self_s", "continuum.convergence_study"),
        ("continuum.discretize.self_s", "continuum.discretize"),
        ("cli.parse_config.self_s", "cli.parse_config"),
        ("cli.run.self_s", "cli.run"),
    ):
        m[name] = per_op(self_s(key)) if need(name, key) else 0.0
    m["profile.limits.calls"] = per_op(calls("profile.limits")) if need(
        "profile.limits.calls", "profile.limits"
    ) else 0.0
    if record["nonfinite_arcs"] is None:
        absent.append("profile.nonfinite_arcs (profile pieces not recognised)")
    m["profile.nonfinite_arcs"] = per_op(record["nonfinite_arcs"] or 0)
    m["problem.calls"] = per_op(layer_entries("problem"))
    m["problem.self_s"] = per_op(layer_self_s("problem"))

    cell_steps = extra.get("oracle.fd_solve.cell_steps", 0.0)
    m["oracle.fd_solve.cell_steps"] = per_op(cell_steps)
    m["oracle.fd_solve.cell_steps_per_s"] = ratio(cell_steps, self_s("oracle.fd_solve"))
    m["oracle.fd_solve.bytes_moved_computed"] = per_op(cell_steps * FD_BYTES_PER_CELL_STEP)
    m["continuum.solves"] = per_op(extra.get("continuum.solves", 0.0))
    m["cli.import_s"] = import_s
    m["cli.bytes_written"] = per_op(extra.get("cli.bytes_written", 0.0))

    # both phases ran the same operations in the same order
    traced_med = op_p50(workload, traced_ms)
    m["trace.overhead_ms"] = traced_med - op_p50(workload, record["latencies_ms"])
    total_traced_s = sum(traced_ms) / 1e3
    m["trace.coverage"] = ratio(snap["top_ns"] / 1e9, total_traced_s)

    shares = [f"traced op time: p50 {traced_med:.4f} ms (as op_ms_p50), mean {1e3 * total_traced_s / ops:.4f} ms over {ops} operations"]
    for layer in LAYERS:
        s = layer_self_s(layer)
        if s:
            shares.append(f"  {layer:<10} self {1e3 * s / ops:10.4f} ms/op  {s / total_traced_s:6.1%} of traced op time")
    shares.append(f"  {'(outside)':<10} {'':>20}  {1.0 - m['trace.coverage']:6.1%} (benchmark, process start, untraced code)")
    return m, absent, shares
