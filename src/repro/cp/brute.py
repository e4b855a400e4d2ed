"""Exact brute-force reference solver for tiny instances.

Enumerates every (resource choice, start time) combination within the
pristine windows, checks all constraints with the independent checker logic,
and returns the minimum number of late jobs.  Exponential -- strictly a test
oracle; keep instances to a handful of tasks and a short horizon.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.cp.model import CpModel
from repro.cp.profile import TimetableProfile
from repro.cp.solution import Solution
from repro.cp.variables import IntervalVar


def _enumerate_assignments(model: CpModel):
    """Yield (starts, choices) over the full cartesian space."""
    windows = model.original_windows or {
        iv: (iv.est, iv.lst) for iv in model.all_intervals
    }
    masters = model.intervals
    alt_of = {alt.master: alt for alt in model.alternatives}

    per_master: List[List[Tuple[int, Optional[IntervalVar]]]] = []
    for iv in masters:
        est, lst = windows[iv]
        options: List[Tuple[int, Optional[IntervalVar]]] = []
        alt = alt_of.get(iv)
        if alt is None:
            for s in range(est, lst + 1):
                options.append((s, None))
        else:
            for opt in alt.options:
                o_est, o_lst = windows[opt]
                lo, hi = max(est, o_est), min(lst, o_lst)
                for s in range(lo, hi + 1):
                    options.append((s, opt))
        per_master.append(options)

    for combo in itertools.product(*per_master):
        starts: Dict[IntervalVar, int] = {}
        choices: Dict[IntervalVar, IntervalVar] = {}
        for iv, (s, opt) in zip(masters, combo):
            starts[iv] = s
            if opt is not None:
                choices[iv] = opt
        yield starts, choices


def _feasible(model: CpModel, starts: Dict, choices: Dict) -> bool:
    # barriers (with transfer delays)
    for b in model.barriers:
        if not b.first or not b.second:
            continue
        end_first = max(starts[iv] + iv.length for iv in b.first)
        if min(starts[iv] for iv in b.second) < end_first + b.delay:
            return False
    # cumulatives
    chosen = set(choices.values())
    master_of = {}
    for alt in model.alternatives:
        for o in alt.options:
            master_of[o] = alt.master
    for spec in model.cumulatives:
        profile = TimetableProfile()
        for iv, demand in zip(spec.intervals, spec.demands):
            if iv.is_optional:
                if iv not in chosen:
                    continue
                s = starts[master_of[iv]]
            else:
                s = starts[iv]
            profile.add(s, s + iv.length, demand)
        if profile.max_height() > spec.capacity:
            return False
    return True


def _late_count(model: CpModel, starts: Dict) -> int:
    late = 0
    for spec in model.indicators:
        completion = max(starts[t] + t.length for t in spec.tasks)
        if completion > spec.deadline:
            late += 1
    return late


def brute_force_min_late(model: CpModel) -> Optional[Tuple[int, Solution]]:
    """Exhaustively find the minimum-late-jobs schedule.

    Returns ``(min_late, solution)`` or ``None`` when no feasible assignment
    exists.  Requires :meth:`CpModel.engine` *not* to have tightened domains;
    call it on a freshly built model or rely on ``original_windows``.
    """
    if not model.original_windows:
        model.original_windows = {
            iv: (iv.est, iv.lst) for iv in model.all_intervals
        }
    best: Optional[Tuple[int, Solution]] = None
    for starts, choices in _enumerate_assignments(model):
        if not _feasible(model, starts, choices):
            continue
        late = _late_count(model, starts)
        if best is None or late < best[0]:
            best = (late, Solution(dict(starts), dict(choices), objective=late))
            if late == 0:
                break
    return best
