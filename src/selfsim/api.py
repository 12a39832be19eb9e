"""One-call solve: orient, minimize, reconstruct, diagnose.

The solver frame always has increasing far-field states; callers with
decreasing states get the space-reflected profile back (the equation is
invariant under x -> -x), with jump diagnostics recomputed in their frame.
"""

from __future__ import annotations

from typing import NamedTuple

from .entropy import shift_constant
from .optimizer import IterationRecord, NewtonOutcome, minimize
from .problem import PhasePartition, RiemannProblem, normalize_orientation
from .profile import JumpRecord, SelfSimilarProfile, build_profile, jump_residuals

KIND_SINGLE_ARC = "single-arc"
KIND_FROZEN_STEP = "frozen-step"
KIND_GENERAL = "general"


class RiemannSolution(NamedTuple):
    """Solved step problem in the caller's orientation."""

    problem: RiemannProblem
    kind: str
    profile: SelfSimilarProfile
    jumps: tuple[JumpRecord, ...]
    entropy: float
    shifted_entropy: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str  # step (converged), no_progress or max_iters (optimizer)
    trace: tuple[IterationRecord, ...]  # left out of the repr

    @property
    def boundaries(self) -> tuple[float, ...]:
        return self.profile.boundaries

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"


def solve_riemann(u_minus: float, u_plus: float, partition: PhasePartition) -> RiemannSolution:
    problem = normalize_orientation(u_minus, u_plus, partition)
    if problem.m == 0:
        # no free boundaries: a single arc, or a step that never moves;
        # there is nothing to correct
        kind = KIND_SINGLE_ARC if partition.coefficients[0] > 0.0 else KIND_FROZEN_STEP
        outcome = NewtonOutcome(
            x=(), value=0.0, grad_norm=0.0, iterations=0,
            converged=True, stop_reason="step", records=(),
        )
    else:
        kind = KIND_GENERAL
        outcome = minimize(problem)
    profile = build_profile(problem, outcome.x)
    if problem.orientation_flipped:
        profile = profile.mirrored()
    return RiemannSolution(
        problem=problem,
        kind=kind,
        profile=profile,
        jumps=jump_residuals(profile),
        entropy=outcome.value,
        shifted_entropy=outcome.value + shift_constant(problem),
        grad_norm=outcome.grad_norm,
        iterations=outcome.iterations,
        converged=outcome.converged,
        stop_reason=outcome.stop_reason,
        trace=outcome.records,
    )
