"""Workload inputs, generated from the run's seed alone.

The program receives only what is generated here: partitions for the three
in-process workloads, config files and a diffusion table for ``cli``.
Operation i of a ``small-mix`` or ``wide`` run draws its input from
``default_rng([seed, i])``, so the same seed always gives the same sequence,
no input repeats however many operations a run reaches, and any other seed
is a held-out draw from the same generator.  ``small`` cycles through a
pool of partitions drawn from the seed instead (see ``small_pool``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_POINTS = 2001  # profile.sample grid, as in ``selfsim solve``
GRID_HALFWIDTH_PER_A = 8.0  # grid spans +-8 a_max: H(x/a) is saturated past it

SMALL = {
    "recipe": "part(n, s) with coefficients uniform [0.5, 2.0]",  # s drawn from the seed
    "n": [1, 8],  # breakpoints evenly spaced
    "pool": "32 partitions per n, 256 in all, cycled with n interleaved",
    "coefficients": "uniform [0.5, 2.0]",
    "zero_probability": 0.2,
    "adjacent_equal_fix": 0.5,
    "states": [0.0, 1.0],
    "warmup": "part(8, 0) with coefficients uniform [0.5, 2.0]",
}
SMALL_MIX = {
    "n": [1, 16],  # uniform phase count; interior breakpoints sorted U(0, 1)
    "coefficients": "log-uniform [0.05, 5]",
    "zero_probability": 0.2,
    "adjacent_equal_fix": 0.5,
    "flip_probability": 0.5,
    "states": [0.0, 1.0],
    "warmup": "part(16, 0)",
}
WIDE = {
    "recipe": "part(1024, s)",  # ROADMAP recipe, s drawn from the seed
    "n": 1024,
    "coefficients": "uniform [0.2, 2.0]",
    "zero_probability": 0.2,
    "adjacent_equal_fix": 0.5,
    "states": [0.0, 1.0],
    "warmup": "part(1024, 0)",
}
# the warm-up inputs are fixed, so set-up time does not depend on the seed
# README three-phase problem; validate runs one grid spacing, sized so the FD
# integration costs a few tenths of a second next to the ~0.5 s import
README_PROBLEM = "u_minus = 0\nu_plus = 3\nbreakpoints = [1, 2]\ncoefficients = [1, 0, 2]\n"
README_STATES = {"u_minus": 0.0, "u_plus": 3.0, "coefficients": (1.0, 0.0, 2.0)}
DEFAULT_CELLS = (2, 4, 8, 16, 32)  # selfsim continuum's default cell list
CLI = {
    "commands": ["solve", "validate", "continuum"],
    "problem": "README three-phase: states 0 -> 3, breakpoints [1, 2], coefficients [1, 0, 2]",
    "validate_dx": 0.025,
    "validate_t": 1.0,
    "continuum_cells": "default [2, 4, 8, 16, 32]",
    "table": "a(u) = 0.6 + 0.4 sin(2 pi (u + phase)) on [0, 1], zero on [c - w, c + w]; 65 samples",
    "table_phase": "U(0, 1)",
    "table_band_center": "U(0.35, 0.65)",
    "table_band_halfwidth": "U(0.04, 0.1)",
}


@dataclass(frozen=True)
class SolveInput:
    u_minus: float
    u_plus: float
    breakpoints: tuple[float, ...]
    coefficients: tuple[float, ...]

    @property
    def grid_halfwidth(self) -> float:
        return GRID_HALFWIDTH_PER_A * max(self.coefficients)


def _fix_adjacent_equal(cs: np.ndarray) -> np.ndarray:
    # sequential, so a run of zeros alternates 0, 0.5, 0, ... and stays admissible
    for k in range(1, cs.size):
        if cs[k] == cs[k - 1]:
            cs[k] = 0.5
    return cs


def small_mix_input(seed: int, i: int) -> SolveInput:
    rng = np.random.default_rng([seed, i])
    n = int(rng.integers(1, 17))
    inner = np.sort(rng.uniform(0.0, 1.0, n))
    cs = np.exp(rng.uniform(math.log(0.05), math.log(5.0), n + 1))
    cs[rng.random(n + 1) < 0.2] = 0.0
    _fix_adjacent_equal(cs)
    flip = bool(rng.random() < 0.5)
    return SolveInput(
        u_minus=1.0 if flip else 0.0,
        u_plus=0.0 if flip else 1.0,
        breakpoints=(0.0, *map(float, inner), 1.0),
        coefficients=tuple(map(float, cs)),
    )


def part(n: int, s: int, lo: float = 0.2, hi: float = 2.0) -> SolveInput:
    """The ROADMAP's shared random-partition recipe, coefficients uniform in [lo, hi]."""
    rng = np.random.default_rng(s)
    cs = rng.uniform(lo, hi, n + 1)
    cs[rng.random(n + 1) < 0.2] = 0.0
    _fix_adjacent_equal(cs)
    return SolveInput(
        u_minus=0.0,
        u_plus=1.0,
        breakpoints=tuple(map(float, np.linspace(0.0, 1.0, n + 2))),
        coefficients=tuple(map(float, cs)),
    )


SMALL_PER_N = 32


@functools.cache
def small_pool(seed: int) -> tuple[SolveInput, ...]:
    """The ``small`` inputs: SMALL_PER_N partitions for each n = 1..8.

    A pool, not a fresh draw per operation: about one fresh partition in
    250 000 of this family stops at the rounding floor with
    ``converged=False`` (ROADMAP item 2), often enough to fail a gated run
    of ~15 000 operations now and then; a pool of 256 meets such a
    partition on about one seed in 1000.
    """
    s = np.random.default_rng(seed).integers(0, 2**31, size=(SMALL_PER_N, 8))
    return tuple(part(n, int(s[j, n - 1]), 0.5, 2.0) for j in range(SMALL_PER_N) for n in range(1, 9))


def small_input(seed: int, i: int) -> SolveInput:
    pool = small_pool(seed)
    return pool[i % len(pool)]


def wide_input(seed: int, i: int) -> SolveInput:
    return part(WIDE["n"], int(np.random.default_rng([seed, i]).integers(0, 2**31)))


# in-process workloads: generator parameters, input of operation i, fixed warm-up input
IN_PROCESS = {
    "small": (SMALL, small_input, lambda: part(8, 0, 0.5, 2.0)),
    "small-mix": (SMALL_MIX, small_mix_input, lambda: part(16, 0)),
    "wide": (WIDE, wide_input, lambda: part(WIDE["n"], 0)),
}


def diffusion_table(seed: int) -> tuple[str, dict]:
    """Text of a tabulated diffusivity with one degenerate band, and its parameters."""
    rng = np.random.default_rng(seed)
    phase = float(rng.uniform(0.0, 1.0))
    center = float(rng.uniform(0.35, 0.65))
    halfwidth = float(rng.uniform(0.04, 0.1))
    lines = [f"# a(u) = 0.6 + 0.4 sin(2 pi (u + {phase!r})), zero on |u - {center!r}| <= {halfwidth!r}"]
    for u in np.linspace(0.0, 1.0, 65):
        a = 0.0 if abs(u - center) <= halfwidth else 0.6 + 0.4 * math.sin(2.0 * math.pi * (u + phase))
        lines.append(f"{float(u)!r}, {a!r}")
    params = {"phase": phase, "band_center": center, "band_halfwidth": halfwidth}
    return "\n".join(lines) + "\n", params


def write_cli_inputs(seed: int, workdir: Path) -> dict:
    """Config files and the diffusion table for the ``cli`` workload."""
    (workdir / "solve.cfg").write_text(README_PROBLEM, encoding="utf-8")
    (workdir / "validate.cfg").write_text(
        README_PROBLEM + f"t = {CLI['validate_t']!r}\ndx = [{CLI['validate_dx']!r}]\n",
        encoding="utf-8",
    )
    table, params = diffusion_table(seed)
    (workdir / "table.txt").write_text(table, encoding="utf-8")
    (workdir / "continuum.cfg").write_text("diffusion = table.txt\n", encoding="utf-8")
    return params
