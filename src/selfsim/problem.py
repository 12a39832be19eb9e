"""Problem statement types.

A step-data problem for u_t = (a^2(u) u_x)_x is described by the two constant
states and a phase partition: breakpoints u_0 < ... < u_{n+1} spanning the
state interval and one diffusion coefficient a_k >= 0 per subinterval
(u_k, u_{k+1}).  Adjacent coefficients must differ, any of them may vanish.

The self-similar solution carries one phase boundary per interior breakpoint.
Boundaries enclosing an interior interval with a_k = 0 collapse onto each
other, so the optimization sees fewer free variables than there are nominal
boundaries.  RiemannProblem is the solver-frame problem: the validated
partition, the free-variable slot of each nominal boundary, and whether the
caller's states were flipped to make them increase.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate


# The objective squares each scaled boundary xi / a_k, which overflows once
# it passes sqrt(max float), about 1.3e154.  The boundaries of a solve stay
# within a few tens of the largest coefficient a_max (the quantile start
# ``heat_step_inverse`` gives at most 55 a_max for any state fraction a float
# can hold), so a live coefficient below this share of a_max is refused; the
# factor 1e3 leaves room for Newton iterates that overshoot.
MIN_COEFFICIENT_RATIO = 1e3 * 55.0 / math.sqrt(sys.float_info.max)


class InvalidPartitionError(ValueError):
    """Raised when a phase partition violates its construction rules, or
    when one of its coefficients is too small to solve in double precision."""


class ConstantStatesError(ValueError):
    """Raised when both step states coincide (solution is the constant)."""


@dataclass(frozen=True)
class PhasePartition:
    """Piecewise-constant diffusion: a(u) = coefficients[k] on (breakpoints[k], breakpoints[k+1])."""

    breakpoints: tuple[float, ...]
    coefficients: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of interior breakpoints (= number of nominal boundaries)."""
        return len(self.breakpoints) - 2


@dataclass(frozen=True)
class Violation:
    message: str
    index: int


def validate(partition: PhasePartition) -> Violation | None:
    """Check a partition against its construction rules.

    Returns None when the partition is admissible and a Violation naming the
    offending entry otherwise.
    """
    bps = partition.breakpoints
    cs = partition.coefficients
    if len(bps) < 2:
        return Violation("need at least two breakpoints", 0)
    if len(cs) != len(bps) - 1:
        return Violation(
            f"expected {len(bps) - 1} coefficients for {len(bps)} breakpoints, got {len(cs)}",
            len(cs),
        )
    for i, b in enumerate(bps):
        if not math.isfinite(b):
            return Violation(f"breakpoint not finite at index {i}", i)
    for i in range(1, len(bps)):
        if not bps[i] > bps[i - 1]:
            return Violation(f"breakpoints not increasing at index {i}", i)
    for k, c in enumerate(cs):
        if not math.isfinite(c):
            return Violation(f"coefficient not finite at k={k}", k)
        if c < 0.0:
            return Violation(f"negative coefficient at k={k}", k)
    for k in range(1, len(cs)):
        if cs[k] == cs[k - 1]:
            return Violation(f"adjacent equal at k={k - 1}", k - 1)
    floor = MIN_COEFFICIENT_RATIO * max(cs)
    for k, c in enumerate(cs):
        if 0.0 < c < floor:
            return Violation(
                f"coefficient a_{k} = {c!r} is below {floor:.3g}: beside the largest "
                "coefficient, boundaries scaled by it overflow double precision",
                k,
            )
    return None


def require_valid(partition: PhasePartition) -> None:
    v = validate(partition)
    if v is not None:
        raise InvalidPartitionError(v.message)


def diffusion_antiderivative(partition: PhasePartition) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and values of A(u) = int_{u_0}^{u} a^2(s) ds, as Python floats.

    A is continuous, piecewise linear, nondecreasing, and constant across
    degenerate intervals.  The values are the partial sums of a_k^2 du_k,
    taken left to right, so every caller reads the same bits at the nodes.
    """
    nodes = tuple(map(float, partition.breakpoints))
    cs = map(float, partition.coefficients)
    terms = (c * c * (hi - lo) for c, lo, hi in zip(cs, nodes, nodes[1:]))
    return nodes, tuple(accumulate(terms, initial=0.0))


@dataclass(frozen=True)
class RiemannProblem:
    """Step data in the solver frame: states increase from u_0 to u_{n+1}.

    The far-field states are the partition's end breakpoints.  ``slots[k-1]``
    is the free-variable index (0-based) of nominal boundary k; the map is
    nondecreasing and onto, and two consecutive boundaries share a slot
    exactly when the interior interval between them carries zero diffusion.
    ``orientation_flipped`` records that the caller's states arrived in
    decreasing order; the equation is invariant under x -> -x, so downstream
    outputs un-flip by mirroring the profile.
    """

    partition: PhasePartition
    slots: tuple[int, ...]
    orientation_flipped: bool

    @property
    def n(self) -> int:
        """Number of nominal boundaries."""
        return len(self.slots)

    @property
    def m(self) -> int:
        """Number of free variables."""
        return self.slots[-1] + 1 if self.slots else 0

    def expand(self, values: tuple[float, ...]) -> tuple[float, ...]:
        """Nominal boundary positions xi_1..xi_n from the m free values."""
        if len(values) != self.m:
            raise ValueError(f"expected {self.m} free values, got {len(values)}")
        return tuple(values[j] for j in self.slots)


def normalize_orientation(
    u_minus: float, u_plus: float, partition: PhasePartition
) -> RiemannProblem:
    """Validate a partition once and build its solver-frame problem from
    caller states in either order."""
    if not (math.isfinite(u_minus) and math.isfinite(u_plus)):
        raise InvalidPartitionError("states must be finite")
    if u_minus == u_plus:
        raise ConstantStatesError(
            "equal states: the solution is the constant; nothing to solve"
        )
    require_valid(partition)
    lo, hi = min(u_minus, u_plus), max(u_minus, u_plus)
    if partition.breakpoints[0] != lo or partition.breakpoints[-1] != hi:
        raise InvalidPartitionError(
            f"partition must span [{lo!r}, {hi!r}], spans "
            f"[{partition.breakpoints[0]!r}, {partition.breakpoints[-1]!r}]"
        )
    cs = partition.coefficients
    slots: list[int] = []
    for k in range(1, partition.n + 1):
        if k == 1:
            slots.append(0)
        elif cs[k - 1] == 0.0:
            # interior interval k-1 is degenerate: boundaries k-1 and k fuse
            slots.append(slots[-1])
        else:
            slots.append(slots[-1] + 1)
    return RiemannProblem(
        partition=partition,
        slots=tuple(slots),
        orientation_flipped=u_plus < u_minus,
    )
