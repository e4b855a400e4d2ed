"""A cumulative's fixed ``base`` load is the fixed intervals it replaces.

Frozen work used to enter a model as fixed intervals; it now sits under
the cumulatives as a base profile, with its end times handed to the search
as ``base_ends``.  On random instances both models must solve identically:
same status, objective, starts, fails and branches (warm start, root
propagation, tree search and the checker all see one step function).
"""

import random

import pytest

from repro.cp import CpModel
from repro.cp.checker import check_solution
from repro.cp.profile import TimetableProfile
from repro.cp.solution import Solution
from repro.cp.solver import CpSolver, SolverParams

CAPACITY = (2, 2)


def instance(seed):
    rng = random.Random(seed)
    frozen = [
        (rng.randrange(2), rng.randint(0, 20), rng.randint(1, 9))
        for _ in range(rng.randint(2, 7))
    ]
    # Keep the frozen load itself within capacity, as a committed plan is.
    load = [TimetableProfile(), TimetableProfile()]
    kept = []
    for pool, start, length in frozen:
        load[pool].add(start, start + length, 1)
        if load[pool].max_height() > CAPACITY[pool]:
            load[pool].remove(start, start + length, 1)
        else:
            kept.append((pool, start, length))
    jobs = []
    for _ in range(rng.randint(2, 4)):
        maps = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
        reduces = [rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
        release = rng.randint(0, 6)
        deadline = release + max(maps) + sum(reduces) + rng.randint(0, 12)
        jobs.append((maps, reduces, release, deadline))
    return kept, jobs


def build(frozen, jobs, as_base):
    model = CpModel(horizon=200)
    pools = ([], [])
    movable = []
    indicators = []
    for k, (maps, reduces, release, deadline) in enumerate(jobs):
        m = [model.interval_var(d, est=release, name=f"j{k}m") for d in maps]
        r = [model.interval_var(d, est=release, name=f"j{k}r") for d in reduces]
        model.add_barrier(m, r)
        late = model.add_deadline_indicator(r or m, deadline)
        model.add_group(
            f"j{k}", m, r, release=release, deadline=deadline, indicator=late
        )
        pools[0].extend(m)
        pools[1].extend(r)
        movable += m + r
        indicators.append(late)
    bases = [None, None]
    if as_base:
        bases = [TimetableProfile(), TimetableProfile()]
        for pool, start, length in frozen:
            bases[pool].add(start, start + length, 1)
        model.base_ends = sorted(start + length for _, start, length in frozen)
    else:
        for pool, start, length in frozen:
            pools[pool].append(model.fixed_interval(start, length, name="frozen"))
    for pool in (0, 1):
        model.add_cumulative(pools[pool], CAPACITY[pool], base=bases[pool])
    model.minimize_sum(indicators)
    return model, movable


@pytest.mark.parametrize("jump", [True, False])
def test_base_solves_exactly_like_fixed_intervals(jump):
    searched = 0
    for seed in range(40):
        frozen, jobs = instance(seed)
        answers = []
        for as_base in (False, True):
            model, movable = build(frozen, jobs, as_base)
            params = SolverParams(
                time_limit=30.0,
                tree_fail_limit=300,
                use_lns=False,
                jump_branching=jump,
            )
            result = CpSolver(params).solve(model)
            sol, stats = result.solution, result.stats
            starts = None if sol is None else [sol.starts[iv] for iv in movable]
            objective = None if sol is None else sol.objective
            answers.append(
                (result.status, objective, starts, stats.fails, stats.branches)
            )
        assert answers[0] == answers[1], seed
        searched += answers[0][4] > 0
    assert searched >= 5  # the tree search ran, not just the warm start


def test_checker_counts_the_base_load():
    frozen, jobs = [(0, 0, 10), (0, 0, 10)], [([4], [], 0, 50)]
    model, movable = build(frozen, jobs, as_base=True)
    model.engine()
    inside = Solution(starts={movable[0]: 5})
    after = Solution(starts={movable[0]: 10})
    assert any("exceeds capacity" in v for v in check_solution(model, inside))
    assert check_solution(model, after) == []
