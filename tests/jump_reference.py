"""Reference jump diagnostics: the per-phase end-flux loop.

This is ``selfsim.profile.jump_residuals`` as it ran before it read the
residual from the profile's ``limits`` and ``flux_limits``: one loop takes
each live phase's end fluxes a du H'(end/a) / D on its own, a fused pair
takes its fluxes from the live phases beyond it (the ``p``/``q`` rule), and
A(u) is summed at the partition's nodes in a loop of its own.  It reads only
the profile's three tuples, and serves as the oracle the profile-based
records must reproduce bit for bit.
"""

from __future__ import annotations

import math

from selfsim.profile import JumpRecord
from selfsim.special import heat_step_arc

from conftest import log_heat_step_deriv


def reference_jump_residuals(problem, profile) -> tuple[JumpRecord, ...]:
    b, u, cs = profile.boundaries, profile.states, profile.coefficients
    n = len(b)
    edges = (-math.inf, *b, math.inf)
    at_lo = [0.0] * (n + 1)
    at_hi = [0.0] * (n + 1)
    for k, a in enumerate(cs):
        if a > 0.0:
            lo, hi = edges[k], edges[k + 1]
            log_norm = heat_step_arc(lo, hi, a)[0]
            scale = a * (u[k + 1] - u[k])
            at_lo[k] = scale * math.exp(log_heat_step_deriv(lo / a) - log_norm)
            at_hi[k] = scale * math.exp(log_heat_step_deriv(hi / a) - log_norm)
    nodes = problem.partition.breakpoints
    a_at = {nodes[0]: 0.0}
    total = 0.0
    for k, c in enumerate(problem.partition.coefficients):
        total += c * c * (nodes[k + 1] - nodes[k])
        a_at[nodes[k + 1]] = total
    records: list[JumpRecord] = []
    slot = -1
    for k in range(1, n + 1):
        loc = b[k - 1]
        if k == 1 or loc != b[k - 2]:
            slot += 1
        # the states either side: a live phase ends at its right state, a
        # dead one at its left state
        left = u[k] if cs[k - 1] > 0.0 else u[k - 1]
        right = u[k] if cs[k] > 0.0 else u[k + 1]
        p = k - 2 if k > 1 and cs[k - 1] == 0.0 else k - 1
        q = k + 1 if k < n and cs[k] == 0.0 else k
        residual = (right - left) * loc / 2.0 + (at_lo[q] - at_hi[p])
        records.append(
            JumpRecord(
                boundary=k,
                slot=slot,
                location=loc,
                left=left,
                right=right,
                a_jump=a_at[right] - a_at[left],
                rh_residual=residual,
                classification="strong" if left != right else "weak",
            )
        )
    return tuple(records)
