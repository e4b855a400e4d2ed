"""The ARIA makespan performance model (Verma et al. [8]).

MinEDF-WC sizes each job's slot allocation from bounds on the completion
time of a phase of ``k`` independent tasks on ``n`` slots:

* lower bound: ``W / n``   (perfect packing of total work ``W``),
* upper bound: ``(W - max) / n + max`` (the classic list-scheduling bound).

ARIA uses the average of the two as its estimate, i.e.

    T_avg(n) = (W - max/2) / n + max/2

and allocates the minimum total number of slots such that the map estimate
plus the reduce estimate fits in the time remaining to the deadline.  The
continuous relaxation has the well-known Lagrange solution

    n_m = (A + sqrt(A*B)) / D',   n_r = (B + sqrt(A*B)) / D'

with ``A``/``B`` the adjusted phase works and ``D'`` the deadline budget
less the constant terms.  We take that closed form, round up, clamp to the
task counts, and repair with a short local search (the rounding can leave
the constraint violated by a sliver).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def phase_time_estimate(durations: Sequence[int], slots: int) -> float:
    """ARIA's average-of-bounds estimate for one phase on ``slots`` slots."""
    if not durations:
        return 0.0
    if slots <= 0:
        raise ValueError("slots must be positive for a non-empty phase")
    work = float(sum(durations))
    longest = float(max(durations))
    return (work - longest / 2.0) / slots + longest / 2.0


def _min_slots_single_phase(durations: Sequence[int], budget: float) -> int:
    """Smallest n with estimate <= budget, or len(durations) if impossible."""
    k = len(durations)
    if k == 0:
        return 0
    work = float(sum(durations))
    longest = float(max(durations))
    denom = budget - longest / 2.0
    if denom <= 0:
        return k
    n = max(1, math.ceil((work - longest / 2.0) / denom))
    return min(n, k)


def min_slots_for_deadline(
    map_durations: Sequence[int],
    reduce_durations: Sequence[int],
    time_budget: float,
) -> Tuple[int, int]:
    """Minimum (map slots, reduce slots) meeting ``time_budget``.

    When the deadline cannot be met even at maximum parallelism the model
    returns (k_m, k_r): ARIA falls back to running the job as fast as
    possible.
    """
    k_m, k_r = len(map_durations), len(reduce_durations)
    if k_m == 0 and k_r == 0:
        return 0, 0
    if k_m == 0:
        return 0, _min_slots_single_phase(reduce_durations, time_budget)
    if k_r == 0:
        return _min_slots_single_phase(map_durations, time_budget), 0

    w_m, m_m = float(sum(map_durations)), float(max(map_durations))
    w_r, m_r = float(sum(reduce_durations)), float(max(reduce_durations))
    a = w_m - m_m / 2.0
    b = w_r - m_r / 2.0
    budget = time_budget - (m_m + m_r) / 2.0

    if budget <= 0:
        return k_m, k_r

    # Continuous optimum via Lagrange multipliers, then integer repair.
    root = math.sqrt(max(a, 0.0) * max(b, 0.0))
    n_m = max(1, math.ceil((a + root) / budget)) if a > 0 else 1
    n_r = max(1, math.ceil((b + root) / budget)) if b > 0 else 1
    n_m, n_r = min(n_m, k_m), min(n_r, k_r)

    def fits(nm: int, nr: int) -> bool:
        return (
            phase_time_estimate(map_durations, nm)
            + phase_time_estimate(reduce_durations, nr)
            <= time_budget
        )

    # Repair upward (rounding may undershoot), preferring the cheaper bump.
    while not fits(n_m, n_r):
        if n_m >= k_m and n_r >= k_r:
            return k_m, k_r
        gain_m = (
            phase_time_estimate(map_durations, n_m)
            - phase_time_estimate(map_durations, min(n_m + 1, k_m))
            if n_m < k_m
            else -1.0
        )
        gain_r = (
            phase_time_estimate(reduce_durations, n_r)
            - phase_time_estimate(reduce_durations, min(n_r + 1, k_r))
            if n_r < k_r
            else -1.0
        )
        if gain_m >= gain_r:
            n_m = min(n_m + 1, k_m)
        else:
            n_r = min(n_r + 1, k_r)

    # Trim any slack the closed form over-provisioned.
    while n_m > 1 and fits(n_m - 1, n_r):
        n_m -= 1
    while n_r > 1 and fits(n_m, n_r - 1):
        n_r -= 1
    return n_m, n_r
