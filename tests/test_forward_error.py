"""Forward error of the boundaries against the 50-digit minimiser of ``boundary_oracle``.

Residuals say how well the interface balances hold at the solved
boundaries; on a thin phase they measure the rounding of its width rather
than the error of the boundaries.  These tests measure max |xi - xi*| /
a_max itself, xi* the minimiser of the objective by Newton at 50 digits.
"""

import mpmath
import pytest

from selfsim import PhasePartition, solve_riemann

import boundary_oracle
from boundary_oracle import forward_error, mp_minimizer, solver_frame_positions
from conftest import part
from test_coefficient_ratios import CASES, _oriented

# the measured worst cases, 4.4e-13 (part(8, 2)) and 3.7e-15 (a_0 = 1e-8),
# with a margin of about 2.5; since the stop on the Newton correction the
# part worst is 2.9e-14 (part(7, 3))
PART_BOUND = 1e-12
RATIO_BOUND = 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_part_boundaries_within_bound_of_the_50_digit_minimiser(n):
    for s in range(8):
        sol = solve_riemann(0.0, 1.0, part(n, s).partition)
        assert sol.converged
        assert forward_error(sol) <= PART_BOUND, (n, s)


@pytest.mark.parametrize("flip", [False, True], ids=["increasing", "decreasing"])
@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [
        *((b, c) for b, c, outcome in CASES if outcome == "root"),
        ((0.0, 0.5, 1.0, 1.5), (1.0, 1e-6, 2.0)),  # an interior phase 1e-6 a_max wide
        # the thin state band of the strict xfail: its residuals miss the
        # tolerance, its boundaries are within 3.1e-16 a_max
        ((0.0, 0.5, 0.5 + 1e-12, 1.0), (1.0, 2.0, 0.5)),
    ],
)
def test_large_ratio_boundaries_within_bound_of_the_50_digit_minimiser(breakpoints, coefficients, flip):
    sol = solve_riemann(*_oriented(breakpoints, coefficients, flip))
    assert sol.converged
    assert forward_error(sol) <= RATIO_BOUND


def test_oracle_moves_a_perturbed_start_back():
    # Newton from boundaries moved by 1e-3 lands on the solve's own, so the
    # oracle's minimiser is not merely its start
    sol = solve_riemann(0.0, 3.0, PhasePartition((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)))
    start = solver_frame_positions(sol)
    exact = mp_minimizer(sol.problem, [v + 1e-3 for v in start])
    assert max(abs(float(w) - v) for v, w in zip(start, exact)) <= 1e-12


def test_oracle_does_not_stop_on_a_halved_step(monkeypatch):
    # ratio-sweep draw (11, 57): every full Newton step would put two
    # positions out of order, and the halving cuts it below 1e-30 while the
    # gradient is still 7.4e-6; such a step must not read as convergence
    breakpoints = (
        0.0, 0.49099002707550754, 0.6949592759574624, 0.7988092110437713,
        0.8239322021375902, 0.9987059156205922, 1.0,
    )
    coefficients = (
        1.2784653121147448e-25, 1.8086017577870982e-05, 1.2643682053795904e-10,
        0.00034540454051713696, 2.687998323772874e-29, 6.680979659773805e-09,
    )
    sol = solve_riemann(1.0, 0.0, PhasePartition(breakpoints, coefficients))
    monkeypatch.setattr(boundary_oracle, "_STEP_BELOW", mpmath.mpf("1e-30"))
    with pytest.raises(AssertionError, match="did not converge"):
        mp_minimizer(sol.problem, solver_frame_positions(sol))


@pytest.mark.parametrize(
    "u_minus, u_plus, breakpoints, coefficients",
    [
        pytest.param(
            0.0, 1.0,
            (0.0, 0.140779066258237, 0.20291105997199965, 0.3514339537889807,
             0.4509026830114301, 0.7172116735621521, 0.884545947920807, 1.0),
            (0.0, 0.005435374726982284, 2.104000589903395e-06, 0.0, 0.9844350138520859,
             2.1292601858259925e-08, 0.32352936772963536),
            id="sweep_7_158",
        ),
        pytest.param(
            1.0, 0.0,
            (0.0, 0.4658623163055011, 0.513327049548568, 0.5488135047983153, 1.0),
            (1.7479327151307496e-08, 1.0017736206639943e-15, 0.0, 1.462779719593039e-21),
            id="sweep_11_261",
        ),
        pytest.param(
            0.0, 1.0,
            (0.0, 0.14048607513715028, 0.20743135629251852, 0.4423421706825399,
             0.4436714783222949, 0.4795252278046295, 0.8888666225513819, 1.0),
            (8.26269433723925e-11, 9.836971019561089e-05, 0.0, 9.224344809316965e-07,
             1.4826773056423021e-12, 1.3116213486046073e-05, 1.468468880066507e-23),
            id="sweep_11_538",
        ),
        # draws (7, i) whose correction lingers at the rounding floor for a
        # few full steps before it falls within the stop; a stop on the
        # objective's rounding ended 2136 after 74 iterations, 1.9e-7 a_max
        # from the minimiser
        pytest.param(
            0.0, 1.0,
            (0.0, 0.032901777449291125, 0.14991695143456862, 0.23233501610592122,
             0.4591204327564957, 0.9242541345133943, 1.0),
            (0.10514092776024303, 6.187400972150528e-05, 0.2279205889686003, 0.0,
             2.044542587884162e-07, 0.0),
            id="sweep_7_21",
        ),
        pytest.param(
            0.0, 1.0,
            (0.0, 0.1476308066286306, 0.2543565782930649, 0.5337820644137828,
             0.5602078164156794, 0.7246978781335337, 1.0),
            (3.425260151371867e-06, 1.0403332008539325e-05, 0.03137504737830652,
             0.008842472490379314, 0.0002879354407716513, 0.023625925270043063),
            id="sweep_7_402",
        ),
        pytest.param(
            0.0, 1.0,
            (0.0, 0.012435697806770896, 0.4280198437483689, 0.5540253151282761, 1.0),
            (9.68286294952882e-05, 1.0590716681049546e-07, 0.0011191526614942717,
             0.25219555738771193),
            id="sweep_7_1459",
        ),
        pytest.param(
            0.0, 1.0,
            (0.0, 0.5121246098245165, 0.5583277993167025, 0.6732093149740755, 1.0),
            (0.03600516155621549, 0.0005805222088694761, 0.0005075178308331334, 0.0),
            id="sweep_7_2117",
        ),
        pytest.param(
            0.0, 1.0,
            (0.0, 0.44998522198371615, 0.5039783741382151, 0.521529035059689,
             0.5573999659269507, 0.5950574156497737, 0.8051502563254851, 1.0),
            (0.556523155904181, 0.0017897931095925425, 3.639162974415623e-08,
             5.316096508994421e-07, 1.811475446756704e-07, 0.0, 0.932353049763042),
            id="sweep_7_2136",
        ),
        pytest.param(
            1.0, 0.0,
            (0.0, 0.3588868795150024, 0.41652454676746664, 1.0),
            (4.7310375244465023e-05, 4.883786765694275e-07, 2.3093658051813816e-07),
            id="sweep_7_2497",
        ),
    ],
)
def test_converged_sweep_draws_within_bound_of_the_50_digit_minimiser(
    u_minus, u_plus, breakpoints, coefficients
):
    # ratio-sweep draws (scripts/ratio_sweep.py's draw(seed, i, lo)).  The
    # first three stopped converged on a test of the objective's rounding, not
    # of the Newton correction, with forward errors of 7.2e-10, 1.9e-10 and
    # 1.7e-8 a_max while the correction was still far above rounding in the
    # directions their thin phases leave soft
    sol = solve_riemann(u_minus, u_plus, PhasePartition(breakpoints, coefficients))
    assert sol.converged
    assert forward_error(sol) <= PART_BOUND
