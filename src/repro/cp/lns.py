"""Large-neighbourhood search (LNS) improvement.

CP Optimizer's default search interleaves tree search with self-adapting LNS;
this module provides the equivalent improvement loop.  Each iteration:

1. pick a *relaxation set* of job groups -- always including late jobs, plus
   jobs whose execution windows overlap them (they are the ones blocking the
   late job's tasks);
2. pin every other group's task starts (and resource choices) to the
   incumbent;
3. re-run a fail-limited tree search for a strictly better solution.

The neighbourhood grows when iterations stop improving, shrinking the pinned
region until either the incumbent is optimal-enough (0 late jobs) or the time
budget runs out.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.model import CpModel, Group
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.solution import SearchStats, Solution
from repro.cp.variables import IntervalVar


@dataclass
class LnsParams:
    fail_limit: int = 300
    initial_neighbourhood: int = 3
    max_neighbourhood: int = 12
    stall_before_grow: int = 4
    #: Neighbourhood RNG seed.  ``CpSolver.solve`` overwrites it with
    #: ``SolverParams.seed``; it only has effect on direct ``lns_improve`` calls.
    seed: int = 0


def _late_groups(model: CpModel, sol: Solution) -> List[Group]:
    late = []
    for g in model.groups:
        if g.deadline is None or not g.intervals:
            continue
        completion = max(sol.end_of(iv) for iv in g.intervals)
        if completion > g.deadline:
            late.append(g)
    return late


def _window(sol: Solution, g: Group) -> tuple:
    starts = [sol.start_of(iv) for iv in g.intervals]
    ends = [sol.end_of(iv) for iv in g.intervals]
    return (min(starts), max(ends))


def _overlap(a: tuple, b: tuple) -> int:
    return max(0, min(a[1], b[1]) - max(a[0], b[0]))


def lns_improve(
    model: CpModel,
    engine: Engine,
    incumbent: Solution,
    deadline: float,
    params: Optional[LnsParams] = None,
    jump: bool = True,
    target: int = 0,
) -> tuple:
    """Improve ``incumbent`` until ``deadline`` (perf_counter time).

    ``target`` is a proven lower bound on the objective: reaching it stops
    the loop early.  Returns ``(best_solution, stats)``.
    """
    params = params or LnsParams()
    stats = SearchStats()
    best = incumbent
    groups = [g for g in model.groups if g.intervals]
    if (
        len(groups) < 2
        or best.objective is None
        or best.objective <= target
    ):
        return best, stats

    rng = random.Random(params.seed)
    brancher = SetTimesBrancher(model, jump=jump)
    neighbourhood = params.initial_neighbourhood
    stall = 0

    # Pre-compute which intervals are "naturally frozen" (fixed windows):
    # pinning them again is harmless but wasteful.
    frozen = {iv for iv in model.intervals if iv.est == iv.lst}

    while time.perf_counter() < deadline:
        late = _late_groups(model, best)
        if not late:
            break  # objective is 0 by construction
        stats.lns_iterations += 1

        # ---- choose the relaxation set
        seed_group = rng.choice(late)
        relax: Set[int] = {id(seed_group)}
        seed_win = _window(best, seed_group)
        neighbours = sorted(
            (g for g in groups if id(g) != id(seed_group)),
            key=lambda g: -_overlap(seed_win, _window(best, g)),
        )
        extra_late = [g for g in late if id(g) not in relax]
        rng.shuffle(extra_late)
        for g in extra_late[: max(0, neighbourhood // 2)]:
            relax.add(id(g))
        for g in neighbours:
            if len(relax) >= neighbourhood:
                break
            relax.add(id(g))

        relaxed_intervals: Set[IntervalVar] = set()
        for g in groups:
            if id(g) in relax:
                relaxed_intervals.update(g.intervals)

        # ---- pin everything else to the incumbent
        engine.reset()
        feasible = True
        try:
            for iv in model.intervals:
                if iv in relaxed_intervals or iv in frozen:
                    continue
                iv.fix_start(best.starts[iv], engine)
            for alt in model.alternatives:
                if alt.master in relaxed_intervals or alt.master in frozen:
                    continue
                chosen = best.choices.get(alt.master)
                if chosen is not None:
                    chosen.set_present(engine)
            engine.propagate()
        except Infeasible:
            feasible = False
        if not feasible:
            stall += 1
            if stall >= params.stall_before_grow:
                neighbourhood = min(neighbourhood + 2, params.max_neighbourhood)
                stall = 0
            continue

        # ---- fail-limited dive for a strictly better solution
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        limits = SearchLimits.from_budget(
            time_budget=remaining, fail_limit=params.fail_limit
        )
        result = tree_search(model, engine, brancher, limits, incumbent=best)
        stats.merge(result.stats)

        if (
            result.best is not None
            and result.best is not best
            and result.best.objective is not None
            and (best.objective is None or result.best.objective < best.objective)
        ):
            best = result.best
            stall = 0
            neighbourhood = params.initial_neighbourhood
            if best.objective is not None and best.objective <= target:
                break
        else:
            stall += 1
            if stall >= params.stall_before_grow:
                neighbourhood = min(neighbourhood + 2, params.max_neighbourhood)
                stall = 0

    engine.reset()
    return best, stats
