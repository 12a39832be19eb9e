"""Shared generators and finite-difference helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from selfsim.problem import PhasePartition, normalize_orientation

_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))


def log_heat_step_deriv(x: float) -> float:
    """ln H'(x) = -x^2/4 - ln(2 sqrt(pi)) in closed form, for the reference loops."""
    return -0.25 * x * x - _LOG_2_SQRT_PI


def make_breakpoints(rng: np.random.Generator, phases: int, lo=-2.0, hi=3.0):
    """Strictly increasing states with gaps bounded away from zero."""
    gaps = rng.uniform(0.2, 1.5, size=phases)
    start = rng.uniform(lo, hi)
    return tuple(np.concatenate([[start], start + np.cumsum(gaps)]).tolist())


def make_coefficients(rng: np.random.Generator, phases: int, degenerate: str = "maybe"):
    """Admissible diffusion coefficients: nonnegative, adjacent distinct,
    no two zeros in a row.

    degenerate: "never", "maybe" (random zeros), or an explicit zero-index
    tuple.
    """
    while True:
        vals = rng.uniform(0.3, 2.5, size=phases)
        if degenerate == "never":
            zeros: tuple[int, ...] = ()
        elif degenerate == "maybe":
            zeros = tuple(
                k for k in range(phases) if rng.random() < 0.25
            )
        else:
            zeros = tuple(degenerate)
        out = list(np.round(vals, 6))
        for k in zeros:
            out[k] = 0.0
        ok = all(out[k] != out[k - 1] for k in range(1, phases))
        ok = ok and all(out[k] > 0.0 or out[k - 1] > 0.0 for k in range(1, phases))
        ok = ok and any(v > 0.0 for v in out)
        if ok:
            return tuple(float(v) for v in out)


def make_problem(rng: np.random.Generator, phases: int, degenerate: str = "maybe"):
    bps = make_breakpoints(rng, phases)
    cs = make_coefficients(rng, phases, degenerate)
    part = PhasePartition(bps, cs)
    return normalize_orientation(bps[0], bps[-1], part)


def part(n: int, seed: int, lo: float = 0.2, hi: float = 2.0):
    """The shared random-partition recipe ``part(n, seed)`` of ROADMAP.md.

    n + 1 coefficients uniform in [lo, hi], each zeroed with probability
    0.2, then any coefficient equal to its left neighbour set to 0.5 (in
    order, so runs of zeros alternate with 0.5); breakpoints evenly spaced
    on [0, 1].  Returns the solver-frame problem for states 0 -> 1.
    """
    rng = np.random.default_rng(seed)
    cs = rng.uniform(lo, hi, n + 1)
    cs[rng.random(n + 1) < 0.2] = 0.0
    for k in range(1, n + 1):
        if cs[k] == cs[k - 1]:
            cs[k] = 0.5
    partition = PhasePartition(tuple(np.linspace(0.0, 1.0, n + 2).tolist()), tuple(cs.tolist()))
    return normalize_orientation(0.0, 1.0, partition)


def admissible(coefficients) -> tuple[float, ...]:
    """Drawn coefficients made admissible: adjacent ones must differ, so a
    repeat is replaced as the ``part`` recipe does."""
    cs = list(coefficients)
    for k in range(1, len(cs)):
        if cs[k] == cs[k - 1]:
            cs[k] = 0.5 if cs[k - 1] != 0.5 else 2.0
    return tuple(cs)


def feasible_point(rng: np.random.Generator, problem, scale: float = 1.0):
    """Random strictly increasing boundary values, as an array of m floats."""
    steps = rng.uniform(0.05, 0.8, size=problem.m) * scale
    start = rng.uniform(-1.5, 0.5) * scale
    return start + np.concatenate([[0.0], np.cumsum(steps[:-1])]) if problem.m > 1 else np.array([start])


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return 0.5 * (H + H.T)


def dense_hessian(hd, ho):
    hd = np.asarray(hd, dtype=float)
    ho = np.asarray(ho, dtype=float)
    H = np.diag(hd)
    for i in range(ho.size):
        H[i, i + 1] = ho[i]
        H[i + 1, i] = ho[i]
    return H


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def pytest_terminal_summary(terminalreporter):
    """One [PASS]/[FAIL] line per acceptance criterion at the end of a run."""
    lines = {}
    for status, tag in (("passed", "[PASS]"), ("failed", "[FAIL]"), ("error", "[FAIL]")):
        for report in terminalreporter.stats.get(status, []):
            for name, value in getattr(report, "user_properties", ()):
                if name == "acceptance":
                    lines[value] = tag
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for text in sorted(lines):
            terminalreporter.write_line(f"{lines[text]} {text}")
