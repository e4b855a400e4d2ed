"""Large-neighbourhood search (LNS) improvement.

CP Optimizer's default search interleaves tree search with self-adapting LNS;
this module provides the equivalent improvement loop.  Each iteration:

1. pick a *relaxation set* of job groups -- always including late jobs, plus
   jobs whose execution windows overlap them (they are the ones blocking the
   late job's tasks);
2. relax it: every group's task starts (and resource choices) sit pinned to
   the incumbent in a propagated trail level opened once per *incumbent*
   (the "pinned level"); the iteration pushes a level on top and puts the
   relaxed groups' domains back to their root bounds with
   :meth:`IntDomain.widen`, so propagation re-derives only what the
   relaxation can reach;
3. re-run a fail-limited tree search for a strictly better solution, then
   pop back to the pinned level.

The neighbourhood grows when iterations stop improving, shrinking the pinned
region.  The loop ends when the incumbent reaches the target (0 late jobs, or
a proven lower bound) or when it has *stagnated*.  Stagnation is two counts,
each lengthened by the progress made so far: gainless iterations (twice the
ramp from the initial to the largest neighbourhood, plus the iteration of the
last gain) and gainless fails (a fail budget, plus the fails spent up to the
last gain).  The fail count ends the calls whose dives are expensive, which
run few iterations.  Because both exits count work, where a call stops does
not depend on the host; the time budget stays only as a ceiling.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cp.domain import IntDomain
from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.model import CpModel, Group
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.solution import SearchStats, Solution
from repro.cp.variables import PRESENT

#: A domain and the bounds root propagation left it with.
_RootBounds = Tuple[IntDomain, int, int]


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


class _PinnedLevel:
    """The incumbent, pinned and propagated one trail level above the root.

    Built once per incumbent: reset, root-propagate, record the root bounds
    of every domain a relaxation will have to put back, push a trail level,
    pin every movable interval (and recorded resource choice) to ``best`` and
    propagate.  :meth:`relax` then opens a neighbourhood on top of it.
    """

    def __init__(
        self, model: CpModel, engine: Engine, best: Solution, groups: List[Group]
    ) -> None:
        self.engine = engine
        self.best = best
        engine.reset()
        engine.propagate()
        # Fixed at the root: no pin needed, nothing to put back.
        frozen = {iv for iv in model.intervals if iv.start.is_fixed}
        group_of = {iv: id(g) for g in groups for iv in g.intervals}
        #: ``id(group)`` -> root bounds of the group's domains, in group
        #: order: its movable task starts, the options of its pinned
        #: alternatives, and the lateness literals over its tasks (read off
        #: ``model.indicators``; ``Group.indicator`` is optional).
        self.bounds: Dict[int, List[_RootBounds]] = {id(g): [] for g in groups}
        #: Root bounds of the options no pin decides (master fixed at the
        #: root, or no choice recorded).  What the pinned level infers for
        #: them may rest on a pin a relaxation lifts, so each one lifts them.
        self.unpinned: List[_RootBounds] = []
        pins: List[Tuple[IntDomain, int]] = []
        for iv in model.intervals:
            if iv in frozen:
                continue
            pins.append((iv.start, best.starts[iv]))
            if iv in group_of:
                self.bounds[group_of[iv]].append((iv.start, iv.est, iv.lst))
        for alt in model.alternatives:
            chosen = best.choices.get(alt.master)
            if alt.master in frozen or chosen is None:
                into = self.unpinned
            else:
                pins.append((chosen.presence.domain, PRESENT))
                # An ungrouped master is never relaxed: its options go nowhere.
                into = self.bounds.get(group_of.get(alt.master), [])
            for o in alt.options:
                presence = o.presence.domain
                into.append((o.start, o.est, o.lst))
                into.append((presence, presence.min, presence.max))
        for spec in model.indicators:
            literal = spec.indicator.domain
            for gid in {group_of[iv] for iv in spec.tasks if iv in group_of}:
                self.bounds[gid].append((literal, literal.min, literal.max))

        engine.trail.push_level()
        #: Whether the pins propagated; they do for every ``best`` that
        #: satisfies the model.
        self.fixpoint = True
        try:
            for dom, value in pins:
                dom.fix(value, engine)
            engine.propagate()
        except Infeasible:
            self.fixpoint = False

    def relax(self, group_ids: Set[int]) -> None:
        """Open a level in which the groups with ``id`` in ``group_ids`` are free.

        Their domains go back to the root bounds, everything else stays
        pinned, and propagation re-derives what the relaxation can reach.
        Raises :class:`Infeasible` when the remaining pins alone are
        inconsistent.  The caller pops the level.
        """
        engine = self.engine
        engine.trail.push_level()
        for dom, lo, hi in self.unpinned:
            dom.widen(lo, hi, engine)
        for gid, entries in self.bounds.items():
            if gid in group_ids:
                for dom, lo, hi in entries:
                    dom.widen(lo, hi, engine)
        # The last dive's bound is untrailed and still installed; the pins
        # alone are judged without it, and the next dive installs it again.
        engine.objective_bound = None
        if not self.fixpoint:
            # The pinned level stopped at a failure: nothing below is known
            # to be consistent, so every propagator runs.
            engine.schedule_all()
        engine.propagate()


def lns_improve(
    model: CpModel,
    engine: Engine,
    incumbent: Solution,
    deadline: float,
    params: Optional[LnsParams] = None,
    jump: bool = True,
    target: int = 0,
) -> tuple:
    """Improve ``incumbent`` until it stops paying or ``deadline`` passes.

    ``target`` is a proven lower bound on the objective: reaching it stops
    the loop early.  So does stagnation, on whichever of two counts comes
    first after a gainless iteration:

    * iterations: with ``ramp`` the gainless iterations it takes to grow from
      the initial to the largest neighbourhood, the loop gives up once
      ``2 * ramp + last_gain`` iterations have passed since ``last_gain``,
      the iteration of the last gain (0 before any);
    * fails: with ``gain_fails`` the fails spent up to the last gain (0
      before any), it gives up once ``stall_fails + gain_fails`` fails have
      been spent since then.  ``stall_fails`` is the fails of
      ``stall_before_grow + 2`` full dives (1 800 at the defaults), but at
      least ``(2 * ramp) ** 2``, a floor that leaves short dives (a small
      ``fail_limit``) room to ramp.

    A run that keeps improving earns a longer wait on both counts; the stop
    needs no lower bound because it claims no optimality.  Both exits count
    work, so with ``deadline = math.inf`` the loop still ends, and a call
    that stops on them returns exactly what it would with no deadline.
    ``deadline`` (perf_counter time) stays the ceiling.  The engine may be
    in any state on entry and is left reset.  Returns
    ``(best_solution, stats)``; ``stats.lns_stop`` says why the loop ended:
    ``"target"``, ``"stagnated"`` or ``"deadline"`` (None when it never
    started).
    """
    params = params or LnsParams()
    stats = SearchStats()
    best = incumbent
    groups = [g for g in model.groups if g.intervals]
    if len(groups) < 2 or best.objective is None or best.objective <= target:
        return best, stats

    rng = random.Random(params.seed)
    brancher = SetTimesBrancher(model, jump=jump)
    neighbourhood = params.initial_neighbourhood
    stall = 0
    ramp = params.stall_before_grow * math.ceil(
        (params.max_neighbourhood - params.initial_neighbourhood) / 2
    )
    last_gain = 0
    stall_fails = max(
        (params.stall_before_grow + 2) * params.fail_limit, (2 * ramp) ** 2
    )
    gain_fails = 0
    stats.lns_stop = "deadline"
    level: Optional[_PinnedLevel] = None

    while time.perf_counter() < deadline:
        if level is None or level.best is not best:
            # ---- once per incumbent: late jobs, windows, the pinned level
            late = _late_groups(model, best)
            if not late:
                stats.lns_stop = "target"
                break  # objective is 0 by construction
            windows = {id(g): _window(best, g) for g in groups}
            level = _PinnedLevel(model, engine, best, groups)
        stats.lns_iterations += 1

        # ---- choose the relaxation set
        seed_group = rng.choice(late)
        relax: Set[int] = {id(seed_group)}
        seed_win = windows[id(seed_group)]
        neighbours = sorted(
            (g for g in groups if g is not seed_group),
            key=lambda g: -_overlap(seed_win, windows[id(g)]),
        )
        extra_late = [g for g in late if g is not seed_group]
        rng.shuffle(extra_late)
        for g in extra_late[: max(0, neighbourhood // 2)]:
            relax.add(id(g))
        for g in neighbours:
            if len(relax) >= neighbourhood:
                break
            relax.add(id(g))

        # ---- relax it out of the pinned level, then dive
        result = None
        try:
            level.relax(relax)
        except Infeasible:
            pass  # the pins alone are infeasible: a stall, not a fail
        else:
            # ---- fail-limited dive for a strictly better solution
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            limits = SearchLimits.from_budget(
                time_budget=remaining, fail_limit=params.fail_limit
            )
            result = tree_search(model, engine, brancher, limits, incumbent=best)
            stats.merge(result.stats)
        engine.trail.pop_level()  # back to the pinned level, queue empty

        if (
            result is not None
            and result.best.objective is not None
            and result.best.objective < best.objective
        ):
            best = result.best
            stall = 0
            neighbourhood = params.initial_neighbourhood
            last_gain = stats.lns_iterations
            gain_fails = stats.fails
            if best.objective <= target:
                stats.lns_stop = "target"
                break
        else:
            stall += 1
            if stall >= params.stall_before_grow:
                neighbourhood = min(neighbourhood + 2, params.max_neighbourhood)
                stall = 0
            if (
                stats.lns_iterations - last_gain >= 2 * ramp + last_gain
                or stats.fails - gain_fails >= stall_fails + gain_fails
            ):
                stats.lns_stop = "stagnated"
                break

    engine.reset()
    return best, stats
