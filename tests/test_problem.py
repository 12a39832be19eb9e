"""Partition validation, orientation handling, fused-boundary slots, and the
public records' value semantics."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import selfsim.problem
from selfsim import solve_riemann
from selfsim.cli import parse_config
from selfsim.continuum import DiffusionFunction
from selfsim.problem import (
    ConstantStatesError,
    InvalidPartitionError,
    PhasePartition,
    RiemannProblem,
    diffusion_antiderivative,
    normalize_orientation,
    require_valid,
)

from conftest import make_problem


def reversed_partition(partition: PhasePartition) -> PhasePartition:
    """The partition seen after the state reflection u -> -u."""
    return PhasePartition(
        breakpoints=tuple(-b for b in reversed(partition.breakpoints)),
        coefficients=tuple(reversed(partition.coefficients)),
    )


def _problem(partition: PhasePartition):
    return normalize_orientation(partition.breakpoints[0], partition.breakpoints[-1], partition)


def test_well_formed_partition_passes():
    assert require_valid(PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))) is None


def test_adjacent_equal_coefficients_rejected():
    with pytest.raises(InvalidPartitionError, match="^adjacent equal at k=0$"):
        require_valid(PhasePartition((0.0, 1.0, 2.0), (0.0, 0.0)))


def test_non_monotone_breakpoints_rejected():
    with pytest.raises(InvalidPartitionError, match="^breakpoints not increasing at index 2$"):
        require_valid(PhasePartition((0.0, 2.0, 1.0), (1.0, 2.0)))


def test_negative_coefficient_rejected():
    with pytest.raises(InvalidPartitionError, match="^negative coefficient at k=1$"):
        require_valid(PhasePartition((0.0, 1.0, 2.0), (1.0, -2.0)))
    # a coefficient that is not a number at all is not called negative
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidPartitionError, match="^coefficient not finite at k=1$"):
            require_valid(PhasePartition((0.0, 1.0, 2.0), (1.0, bad)))


def test_arity_mismatch_rejected():
    with pytest.raises(InvalidPartitionError, match="^expected 2 coefficients for 3 breakpoints, got 1$"):
        require_valid(PhasePartition((0.0, 1.0, 2.0), (1.0,)))


def test_too_few_or_non_finite_breakpoints_rejected():
    with pytest.raises(InvalidPartitionError, match="^need at least two breakpoints$"):
        require_valid(PhasePartition((0.0,), ()))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidPartitionError, match="^breakpoint not finite at index 1$"):
            require_valid(PhasePartition((0.0, bad, 2.0), (1.0, 2.0)))


def test_normalize_rejects_non_finite_or_unspanned_states():
    part = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
    for u_minus, u_plus in ((float("nan"), 2.0), (0.0, float("inf"))):
        with pytest.raises(InvalidPartitionError, match="^states must be finite$"):
            normalize_orientation(u_minus, u_plus, part)
    with pytest.raises(InvalidPartitionError, match=r"must span \[0.0, 3.0\], spans \[0.0, 2.0\]"):
        normalize_orientation(0.0, 3.0, part)


def test_expand_rejects_a_wrong_count():
    prob = _problem(PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="^expected 1 free values, got 2$"):
        prob.expand((0.0, 1.0))


def test_require_valid_raises():
    with pytest.raises(InvalidPartitionError):
        require_valid(PhasePartition((0.0, 1.0), (-1.0,)))


def test_normalize_keeps_increasing_data():
    part = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
    prob = normalize_orientation(0.0, 2.0, part)
    assert not prob.orientation_flipped
    assert prob.partition.breakpoints == (0.0, 1.0, 2.0)
    assert prob.slots == (0,)


def test_problem_is_partition_slots_and_orientation():
    assert RiemannProblem._fields == ("partition", "slots", "orientation_flipped")


README_PARTITION = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
README_CONFIG = "u_minus = 0\nu_plus = 3\nbreakpoints = [1, 2]\ncoefficients = [1, 0, 2]\n"

# each public record, built afresh per call
RECORDS = {
    "PhasePartition": lambda: PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0)),
    "RiemannSolution": lambda: solve_riemann(0.0, 3.0, README_PARTITION),
    "JumpRecord": lambda: solve_riemann(0.0, 3.0, README_PARTITION).jumps[0],
    "SelfSimilarProfile": lambda: solve_riemann(3.0, 0.0, README_PARTITION).profile,
    "DiffusionFunction": lambda: DiffusionFunction(states=(0.0, 0.5, 1.0), values=(1.0, 0.0, 2.0)),
    "RunConfig": lambda: parse_config(README_CONFIG, "solve"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    assert record == twin and hash(record) == hash(twin)
    assert pickle.loads(pickle.dumps(record)) == record


def test_solution_repr_leaves_out_the_trace():
    solution = solve_riemann(0.0, 3.0, README_PARTITION)
    assert len(solution.trace) > 1
    text = repr(solution)
    assert text.startswith("RiemannSolution(problem=RiemannProblem(partition=PhasePartition(")
    assert text.endswith(f"stop_reason={solution.stop_reason!r})")
    assert "trace=" not in text and "IterationRecord" not in text


def test_solve_validates_the_partition_once(monkeypatch):
    seen = []

    def counting(partition):
        seen.append(partition)
        return require_valid(partition)

    monkeypatch.setattr(selfsim.problem, "require_valid", counting)
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    solve_riemann(3.0, 0.0, part)
    assert seen == [part]


def test_normalize_flips_decreasing_data():
    part = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
    prob = normalize_orientation(2.0, 0.0, part)
    assert prob.orientation_flipped
    # internal view is always increasing
    assert prob.partition.breakpoints[0] == 0.0
    assert prob.partition.breakpoints[-1] == 2.0


def test_normalize_rejects_equal_states():
    part = PhasePartition((0.0, 1.0), (1.0,))
    with pytest.raises(ConstantStatesError):
        normalize_orientation(1.0, 1.0, part)


def test_layout_nondegenerate():
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.0))
    prob = _problem(part)
    assert prob.n == 2 and prob.m == 2
    assert prob.slots == (0, 1)


def test_layout_inner_merge():
    # inner vanishing coefficient identifies the two flanking boundaries
    part = PhasePartition((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 1.0, 2.0))
    prob = _problem(part)
    assert prob.n == 3 and prob.m == 2
    assert prob.slots == (0, 0, 1)


def test_layout_degenerate_left_edge():
    part = PhasePartition((0.0, 1.0, 2.0), (0.0, 1.0))
    prob = _problem(part)
    # a dead edge phase fuses nothing: its one boundary keeps its own slot
    assert prob.n == 1 and prob.m == 1
    assert prob.slots == (0,)


def test_layout_slots_nondecreasing_and_surjective(rng):
    for _ in range(50):
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        slots = prob.slots
        assert len(slots) == prob.n
        assert all(b - a in (0, 1) for a, b in zip(slots, slots[1:]))
        assert sorted(set(slots)) == list(range(prob.m))


def test_expand_contract_round_trip(rng):
    for _ in range(50):
        phases = int(rng.integers(2, 8))
        prob = make_problem(rng, phases)
        values = tuple(np.sort(rng.uniform(-2, 2, size=prob.m)).tolist())
        nominal = prob.expand(values)
        assert len(nominal) == prob.n
        # the first entry of each slot gives the free values back
        assert tuple(nominal[prob.slots.index(j)] for j in range(prob.m)) == values
        # nominal positions repeat exactly on merged slots
        for k, s in enumerate(prob.slots):
            assert nominal[k] == values[s]


def test_reflection_covariance(rng):
    for _ in range(30):
        phases = int(rng.integers(2, 7))
        prob = make_problem(rng, phases)
        rev = reversed_partition(prob.partition)
        require_valid(rev)
        prob_rev = _problem(rev)
        assert prob_rev.n == prob.n and prob_rev.m == prob.m
        # merged boundary groups mirror: boundary k of the reversed partition
        # is boundary n + 1 - k of the original, slot j becomes slot m - 1 - j
        assert prob_rev.slots == tuple(prob.m - 1 - j for j in reversed(prob.slots))


def test_antiderivative_table():
    part = PhasePartition((0.0, 1.0, 2.0), (1.0, 2.0))
    states, accum = diffusion_antiderivative(part)
    assert np.allclose(states, [0.0, 1.0, 2.0])
    # integral of a^2 du: 1 over the first phase, 4 over the second
    assert np.allclose(accum, [0.0, 1.0, 5.0])


def test_antiderivative_is_python_floats_summed_left_to_right(rng):
    # np.cumsum sums sequentially too, so the array form gives the same bits;
    # integer breakpoints still come back as floats
    for n in (1, 4, 16):
        prob = make_problem(rng, n)
        bps, cs = prob.partition.breakpoints, prob.partition.coefficients
        nodes, values = diffusion_antiderivative(prob.partition)
        assert all(type(v) is float for v in nodes + values)
        expected = np.concatenate(([0.0], np.cumsum(np.square(cs) * np.diff(bps))))
        assert np.array(values).tobytes() == expected.tobytes()
    nodes, values = diffusion_antiderivative(PhasePartition((0, 1, 3), (2, 0)))
    assert (nodes, values) == ((0.0, 1.0, 3.0), (0.0, 4.0, 4.0))
    assert all(type(v) is float for v in nodes + values)


def test_antiderivative_flat_on_degenerate():
    part = PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0))
    states, accum = diffusion_antiderivative(part)
    assert accum[1] == accum[2]
