"""Depth-first branch-and-bound tree search.

The branching rule is *schedule-or-postpone* ("set times"): pick the unfixed
present interval with the smallest earliest start time; the left branch fixes
it there, the right branch pushes its earliest start later.  Two right-branch
policies are provided:

* ``jump`` (default): push the start to the next *interesting* time -- the
  smallest earliest-completion-time of another interval beyond the current
  est.  This exploits the classical active-schedule dominance (for regular
  objectives some optimal schedule starts every task at a release date or at
  another task's completion) and is what makes the search usable on real
  instances.
* ``complete``: push the start by one time unit.  Exhaustive over the integer
  horizon; used by the test-suite to prove optimality against brute force.

A search that exhausts the tree under ``jump`` reports its incumbent as
optimal only when the incumbent is 0 (trivially optimal) -- the solver never
claims proven optimality from a dominance-pruned tree.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.model import CpModel
from repro.cp.solution import SearchStats, Solution
from repro.cp.variables import IntervalVar

#: A decision is (apply_left, apply_right); each mutates engine state and may
#: raise Infeasible.
Decision = Tuple[Callable[[Engine], None], Callable[[Engine], None]]


@dataclass
class SearchLimits:
    """Budget for one tree-search run."""

    deadline: Optional[float] = None  # absolute perf_counter() time
    fail_limit: Optional[int] = None

    @staticmethod
    def from_budget(
        time_budget: Optional[float] = None,
        fail_limit: Optional[int] = None,
    ) -> "SearchLimits":
        deadline = None if time_budget is None else time.perf_counter() + time_budget
        return SearchLimits(deadline, fail_limit)

    def exceeded(self, stats: SearchStats) -> bool:
        """Whether either budget (fails, wall time) is spent."""
        if self.fail_limit is not None and stats.fails >= self.fail_limit:
            return True
        if self.deadline is not None and (stats.branches & 0x3F) == 0:
            if time.perf_counter() >= self.deadline:
                return True
        return False


class SetTimesBrancher:
    """Presence decisions first, then schedule-or-postpone on start times."""

    def __init__(self, model: CpModel, jump: bool = True) -> None:
        self.model = model
        self.jump = jump
        #: Scan entries ``(start domain, length, presence domain, interval)``
        #: that a decision can still concern, in model order (ties between
        #: equal selection keys break by it); set by :meth:`partition`.
        self._open: Optional[
            List[Tuple[object, int, Optional[object], IntervalVar]]
        ] = None
        #: Sorted completion times of the intervals :meth:`partition` found
        #: decided (start fixed, present) and of the model's fixed base work:
        #: constants for the whole search.
        self._decided_ends: List[int] = []

    @property
    def complete(self) -> bool:
        """Whether exhausting the tree proves optimality."""
        return not self.jump

    # ------------------------------------------------------------ decisions
    def choose(self, engine: Engine) -> Optional[Decision]:
        """Next decision: a presence choice first, then schedule-or-postpone; None when the assignment is complete."""
        decision = self._choose_presence(engine)
        if decision is not None:
            return decision
        return self._choose_start(engine)

    def _choose_presence(self, engine: Engine) -> Optional[Decision]:
        best_alt = None
        best_key = None
        for alt in self.model.alternatives:
            if any(o.is_present for o in alt.options):
                continue
            key = (alt.master.est, alt.master.lst - alt.master.est)
            if best_key is None or key < best_key:
                best_key = key
                best_alt = alt
        if best_alt is None:
            return None
        possible = [o for o in best_alt.options if not o.is_absent]
        # The alternative propagator guarantees len(possible) >= 2 here
        # (a single possible option would already have been made present).
        option = min(possible, key=lambda o: (o.est, -(o.lst - o.est)))

        def left(eng: Engine, opt: IntervalVar = option) -> None:
            opt.set_present(eng)

        def right(eng: Engine, opt: IntervalVar = option) -> None:
            opt.set_absent(eng)

        return left, right

    def partition(self) -> None:
        """Split the scan at a search's propagated root.

        Below the root domains only shrink, so an interval whose start is
        fixed (and whose presence is decided) there stays out of every
        decision of that search: :func:`tree_search` calls this once per
        search, and a decision then pays for the undecided entries only.
        """
        self._open = []
        ends = list(self.model.base_ends)
        for iv in self.model.intervals:
            start = iv.start
            pres = iv.presence.domain if iv.presence is not None else None
            if start._min != start._max or (
                pres is not None and pres._min != pres._max
            ):
                self._open.append((start, iv.length, pres, iv))
            elif pres is None or pres._min == 1:
                ends.append(start._min + iv.length)
        ends.sort()
        self._decided_ends = ends

    def _choose_start(self, engine: Engine) -> Optional[Decision]:
        if self._open is None:
            self.partition()  # bare use, outside tree_search
        scan = self._open
        chosen: Optional[IntervalVar] = None
        # Selection key is (min, window span, max+length), smallest wins,
        # first-seen kept on ties; compared field-by-field to avoid a tuple
        # allocation per scanned interval on this per-decision hot path.
        c_mn = c_span = c_end = 0
        for start, length, _pres, iv in scan:
            mn = start._min  # type: ignore[attr-defined]
            mx = start._max  # type: ignore[attr-defined]
            if mn == mx:
                continue
            if chosen is not None:
                if mn > c_mn:
                    continue
                if mn == c_mn:
                    span = mx - mn
                    if span > c_span or (
                        span == c_span and mx + length >= c_end
                    ):
                        continue
            chosen = iv
            c_mn = mn
            c_span = mx - mn
            c_end = mx + length
        if chosen is None:
            return None
        est = c_mn
        nxt = est + 1
        if self.jump:
            # Smallest completion time beyond est among the other present
            # intervals: the decided ones by bisection, the rest by scan.
            ends = self._decided_ends
            i = bisect_right(ends, est)
            best_jump = ends[i] if i < len(ends) else None
            for start, length, pres, other in scan:
                if other is chosen:
                    continue
                if pres is not None and pres._max == 0:  # type: ignore[attr-defined]
                    # An absent interval's ect is meaningless; jumping to it
                    # could push the postpone branch past feasible starts.
                    continue
                ect = start._min + length  # type: ignore[attr-defined]
                if ect > est and (best_jump is None or ect < best_jump):
                    best_jump = ect
            if best_jump is not None:
                nxt = max(nxt, best_jump)

        def left(eng: Engine, iv: IntervalVar = chosen, s: int = est) -> None:
            iv.fix_start(s, eng)

        def right(eng: Engine, iv: IntervalVar = chosen, s: int = nxt) -> None:
            iv.set_start_min(s, eng)  # raises Infeasible when s > lst

        return left, right


@dataclass
class TreeSearchResult:
    best: Optional[Solution]
    exhausted: bool
    stats: SearchStats = field(default_factory=SearchStats)


def extract_solution(model: CpModel, objective: Optional[int] = None) -> Solution:
    """Read a complete assignment off the (fully fixed) engine state."""
    starts = {iv: iv.start.value for iv in model.intervals}
    choices = {}
    for alt in model.alternatives:
        for o in alt.options:
            if o.is_present:
                choices[alt.master] = o
                break
    sol = Solution(starts=starts, choices=choices, objective=objective)
    if objective is None and model.objective_bools is not None:
        sol.objective = sol.evaluate_objective(model)
    return sol


def tree_search(
    model: CpModel,
    engine: Engine,
    brancher: SetTimesBrancher,
    limits: SearchLimits,
    incumbent: Optional[Solution] = None,
    first_solution_only: bool = False,
) -> TreeSearchResult:
    """Run DFS branch-and-bound from the engine's *current* state.

    Whatever the caller holds on the trail -- a bare reset, or levels of its
    own with pins applied -- is the root of this search and is still there
    when it returns: the search opens its own trail level, performs the root
    propagation inside it, and on both exits (normal and root-infeasible)
    unwinds to the level it was entered at with the queue empty.
    ``incumbent`` (if given) seeds the objective bound; strictly better
    solutions are searched for.
    """
    stats = SearchStats()
    t0 = time.perf_counter()
    prop0 = engine.propagation_count
    best = incumbent
    has_objective = model.objective_bools is not None
    trail = engine.trail
    entry_level = trail.level
    trail.push_level()

    def finish(best: Optional[Solution], exhausted: bool) -> TreeSearchResult:
        while trail.level > entry_level:
            trail.pop_level()
        engine.clear_queue()
        stats.wall_time = time.perf_counter() - t0
        stats.propagations = engine.propagation_count - prop0
        return TreeSearchResult(best, exhausted=exhausted, stats=stats)

    if best is not None and best.objective is not None:
        engine.on_bound_tightened(best.objective - 1)

    try:
        engine.propagate()
    except Infeasible:
        stats.fails += 1
        return finish(best, exhausted=True)
    brancher.partition()

    # Each stack entry is the pending right branch for the open level
    # (None once the right branch has been taken).
    stack: List[Optional[Callable[[Engine], None]]] = []
    exhausted = False

    def backtrack() -> bool:
        """Undo levels until a pending right branch applies cleanly."""
        while stack:
            engine.trail.pop_level()
            engine.clear_queue()
            right = stack.pop()
            if right is None:
                continue
            engine.trail.push_level()
            stack.append(None)
            try:
                right(engine)
                if engine.objective_propagator is not None:
                    # Re-arm the bound cut: it may have tightened since this
                    # subtree's last propagation and is not domain-triggered.
                    engine.schedule(engine.objective_propagator)
                engine.propagate()
                return True
            except Infeasible:
                stats.fails += 1
                continue
        return False

    while True:
        if limits.exceeded(stats):
            break
        decision = brancher.choose(engine)
        if decision is None:
            # Complete assignment at this node.
            stats.solutions += 1
            obj = None
            sol = extract_solution(model)
            if has_objective:
                obj = sol.objective
                assert obj is not None
                if best is None or best.objective is None or obj < best.objective:
                    best = sol
                    engine.on_bound_tightened(obj - 1)
                if obj == 0 or first_solution_only:
                    break
            else:
                best = sol
                break
            if not backtrack():
                exhausted = True
                break
            continue

        left, right = decision
        stats.branches += 1
        engine.trail.push_level()
        stack.append(right)
        try:
            left(engine)
            engine.propagate()
        except Infeasible:
            stats.fails += 1
            # Retract the failed left branch, try the pending right branch.
            if not backtrack():
                exhausted = True
                break

    return finish(best, exhausted)
