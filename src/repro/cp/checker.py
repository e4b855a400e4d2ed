"""Independent solution validation.

Every solution the solver surfaces -- from the warm-start heuristic, the tree
search or LNS -- can be validated against the *declarative* model: start
windows, barriers, alternatives, cumulative capacities and the reported
objective.  The checker shares no propagation code with the solver
(it rebuilds each profile from the spec's fixed base plus the solution's
starts), so it doubles as the oracle for property-based tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cp.model import CpModel
from repro.cp.profile import TimetableProfile
from repro.cp.solution import Solution
from repro.cp.variables import IntervalVar


def check_solution(model: CpModel, sol: Solution) -> List[str]:
    """Return a list of violation messages (empty = valid)."""
    violations: List[str] = []
    windows = model.original_windows

    # --- every mandatory interval has a start inside its pristine window
    for iv in model.intervals:
        if iv not in sol.starts:
            violations.append(f"missing start for {iv.name}")
            continue
        s = sol.starts[iv]
        est, lst = windows.get(iv, (iv.est, iv.lst))
        if not (est <= s <= lst):
            violations.append(
                f"{iv.name}: start {s} outside window [{est}, {lst}]"
            )
    if violations:
        return violations  # later checks need complete starts

    # --- alternatives: exactly one option chosen, belonging to the spec
    option_to_master: Dict[IntervalVar, IntervalVar] = {}
    for alt in model.alternatives:
        chosen = sol.choices.get(alt.master)
        if chosen is None:
            violations.append(f"{alt.name}: no option chosen")
            continue
        if chosen not in alt.options:
            violations.append(
                f"{alt.name}: chosen interval {chosen.name} is not an option"
            )
            continue
        option_to_master[chosen] = alt.master

    # --- cumulative capacities
    for spec in model.cumulatives:
        profile = spec.base.copy() if spec.base is not None else TimetableProfile()
        for iv, demand in zip(spec.intervals, spec.demands):
            if iv.is_optional:
                master = option_to_master.get(iv)
                if master is None:
                    continue  # option not chosen -> absent
                s = sol.starts[master]
            else:
                s = sol.starts[iv]
            profile.add(s, s + iv.length, demand)
        peak = profile.max_height()
        if peak > spec.capacity:
            violations.append(
                f"{spec.name}: peak usage {peak} exceeds capacity {spec.capacity}"
            )

    # --- barriers (map -> reduce / workflow edges, with transfer delays)
    for b in model.barriers:
        if not b.first or not b.second:
            continue
        end_first = max(sol.starts[iv] + iv.length for iv in b.first)
        start_second = min(sol.starts[iv] for iv in b.second)
        if start_second < end_first + b.delay:
            violations.append(
                f"{b.name or 'barrier'}: second stage starts {start_second} "
                f"before first stage ends {end_first} (+ delay {b.delay})"
            )

    # --- objective consistency
    if model.objective_bools is not None and sol.objective is not None:
        actual = sol.evaluate_objective(model)
        if actual != sol.objective:
            violations.append(
                f"objective {sol.objective} != recomputed late count {actual}"
            )

    return violations
