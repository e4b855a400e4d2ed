"""List-scheduling warm starts.

CP Optimizer seeds its incomplete search with constructive heuristics; we do
the same.  The list scheduler walks the model's job groups in a chosen order
(EDF / least-laxity / input order -- the three job orderings MRCP-RM is
configured with in Section VI.B), placing each task at the earliest time that
fits every cumulative profile it participates in, honouring the map/reduce
barrier and any frozen (already running) tasks.

The resulting assignment is always feasible with respect to the hard
constraints; deadline misses simply show up in the objective.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cp.model import AlternativeSpec, CpModel, Group
from repro.cp.profile import TimetableProfile
from repro.cp.solution import Solution
from repro.cp.variables import IntervalVar

#: Supported job orderings (paper, Section VI.B).
ORDERINGS = ("edf", "laxity", "input")


def group_sort_key(order: str, index: int, group: Group):
    """Sort key implementing one of the three job orderings of Section VI.B."""
    if order == "edf":
        d = group.deadline if group.deadline is not None else float("inf")
        return (d, group.release, index)
    if order == "laxity":
        return (group.laxity(), group.release, index)
    if order == "input":
        return (index,)
    raise ValueError(f"unknown ordering {order!r}; expected one of {ORDERINGS}")


class _PlacementState:
    """Profiles and committed usage for one heuristic run."""

    def __init__(self, model: CpModel) -> None:
        self.model = model
        self.profiles: Dict[int, TimetableProfile] = {
            id(spec): spec.base.copy() if spec.base is not None else TimetableProfile()
            for spec in model.cumulatives
        }
        # Load per cumulative (total committed length) for tie-breaking.
        self.load: Dict[int, int] = {id(spec): 0 for spec in model.cumulatives}
        # interval -> [(profile, demand, capacity, load_key)] memberships;
        # profile/capacity are pre-resolved so the fit/commit hot loops do
        # no per-call spec lookups.
        self.membership: Dict[
            IntervalVar, List[Tuple[TimetableProfile, int, int, int]]
        ] = {}
        membership = self.membership
        for spec in model.cumulatives:
            key = id(spec)
            profile = self.profiles[key]
            capacity = spec.capacity
            for iv, d in zip(spec.intervals, spec.demands):
                entry = (profile, d, capacity, key)
                lst = membership.get(iv)
                if lst is None:
                    membership[iv] = [entry]
                else:
                    lst.append(entry)
        self.alt_of: Dict[IntervalVar, AlternativeSpec] = {
            alt.master: alt for alt in model.alternatives
        }
        self.starts: Dict[IntervalVar, int] = {}
        self.choices: Dict[IntervalVar, IntervalVar] = {}

    # ------------------------------------------------------------ placement
    def fit(self, iv: IntervalVar, est: int, lst: int) -> Optional[int]:
        """Earliest start >= est fitting all of ``iv``'s cumulative profiles."""
        members = self.membership.get(iv, ())
        s = est
        if not members:
            return s if s <= lst else None
        length = iv.length
        if len(members) == 1:
            # One profile: its earliest fit is already the joint fixpoint.
            profile, demand, capacity, _key = members[0]
            return profile.earliest_fit(s, lst, length, demand, capacity)
        while True:
            s0 = s
            for profile, demand, capacity, _key in members:
                f = profile.earliest_fit(s, lst, length, demand, capacity)
                if f is None:
                    return None
                if f > s:
                    s = f
            if s == s0:
                return s

    def commit(self, carrier: IntervalVar, master: IntervalVar, start: int) -> None:
        """Record ``master`` starting at ``start``, consuming via ``carrier``.

        In joint (matchmaking) mode the *carrier* is the chosen per-resource
        option interval; in combined mode carrier is the master itself.
        """
        self.starts[master] = start
        if carrier is not master:
            self.choices[master] = carrier
        length = carrier.length
        for profile, demand, _capacity, key in self.membership.get(carrier, ()):
            profile.add(start, start + length, demand)
            self.load[key] += length

    def place_master(self, iv: IntervalVar, est: int) -> Optional[int]:
        """Place one master interval (choosing a resource when alternatives
        exist); returns the assigned start or None if nothing fits."""
        start_dom = iv.start
        if start_dom._min > est:
            est = start_dom._min
        lst = start_dom._max
        alt = self.alt_of.get(iv)
        if alt is None:
            members = self.membership.get(iv)
            if members is not None and len(members) == 1:
                # Combined-mode hot path (one cumulative, no alternatives):
                # fit and commit against the single profile inline.
                profile, demand, capacity, key = members[0]
                length = iv.length
                s = profile.place_earliest(est, lst, length, demand, capacity)
                if s is None:
                    return None
                self.starts[iv] = s
                self.load[key] += length
                return s
            s = self.fit(iv, est, lst)
            if s is None:
                return None
            self.commit(iv, iv, s)
            return s
        best: Optional[Tuple[int, int, IntervalVar]] = None
        for option in alt.options:
            o_est = max(est, option.est)
            o_lst = min(lst, option.lst)
            if o_est > o_lst:
                continue
            s = self.fit(option, o_est, o_lst)
            if s is None:
                continue
            tie = sum(
                self.load[key]
                for _profile, _d, _cap, key in self.membership.get(option, ())
            )
            key2 = (s, tie)
            if best is None or key2 < (best[0], best[1]):
                best = (s, tie, option)
        if best is None:
            return None
        s, _, option = best
        self.commit(option, iv, s)
        return s


def list_schedule(
    model: CpModel,
    order: str = "edf",
    preplaced: Optional[Dict[IntervalVar, int]] = None,
) -> Optional[Solution]:
    """Greedy constructive schedule; returns None if placement fails.

    ``preplaced`` pins chosen intervals to given start times before the
    greedy pass -- the mechanism behind solution *hints* (re-using the
    previous scheduling round's plan, as MRCP-RM's incremental loop does).
    A hinted start that violates its window or a capacity aborts the whole
    attempt (returns None); the caller falls back to un-hinted orders.

    Un-hinted placement can only fail when frozen tasks already violate a
    capacity or a window is unsatisfiable -- on well-formed MRCP-RM models
    it succeeds.
    """
    state = _PlacementState(model)

    frozen = [iv for iv in model.intervals if iv.start._min == iv.start._max]
    movable_in_group = set()
    for g in model.groups:
        movable_in_group.update(g.intervals)

    # 1. Frozen tasks occupy their fixed slots first.
    for iv in frozen:
        carrier: IntervalVar = iv
        alt = state.alt_of.get(iv)
        if alt is not None:
            # Frozen master in joint mode: its resource was decided when it
            # was dispatched; the formulation creates exactly one option.
            carrier = min(alt.options, key=lambda o: abs(o.est - iv.est))
        state.commit(carrier, iv, iv.est)

    frozen_set = set(frozen)

    # 1b. Hinted tasks next, exactly where the hint says (or give up).
    if preplaced:
        hinted = sorted(
            ((iv, s) for iv, s in preplaced.items() if iv not in frozen_set),
            key=lambda p: (p[1], p[0].name),
        )
        for iv, start in hinted:
            if not (iv.est <= start <= iv.lst):
                return None
            alt = state.alt_of.get(iv)
            if alt is None:
                if state.fit(iv, start, start) != start:
                    return None
                state.commit(iv, iv, start)
            else:
                placed = False
                for option in alt.options:
                    if not (option.est <= start <= option.lst):
                        continue
                    if state.fit(option, start, start) == start:
                        state.commit(option, iv, start)
                        placed = True
                        break
                if not placed:
                    return None
        frozen_set = frozen_set | {iv for iv, _ in hinted}

    # 2. Job groups in the requested order; within a group, stages run in
    #    topological order and each stage is released when its predecessor
    #    stages have completed (the generalised barrier).
    ordered = sorted(
        enumerate(model.groups), key=lambda p: group_sort_key(order, p[0], p[1])
    )
    for _, group in ordered:
        stage_end = [0] * len(group.stages)
        delays = group.stage_pred_delays or [
            [0] * len(ps) for ps in group.stage_preds
        ]
        for idx, stage in enumerate(group.stages):
            release = group.release
            for p, d in zip(group.stage_preds[idx], delays[idx]):
                release = max(release, stage_end[p] + d)
            end = 0
            for iv in stage:
                if iv in frozen_set:
                    # frozen or hinted: use the actual committed start
                    placed_at = state.starts.get(iv, iv.est)
                    end = max(end, placed_at + iv.length)
            movable_stage = [iv for iv in stage if iv not in frozen_set]
            # Longest-processing-time first within a stage reduces makespan.
            movable_stage.sort(key=lambda iv: -iv.length)
            for iv in movable_stage:
                s = state.place_master(iv, est=release)
                if s is None:
                    return None
                end = max(end, s + iv.length)
            stage_end[idx] = end

    # 3. Any interval outside the groups (generic library use).
    leftovers = [
        iv
        for iv in model.intervals
        if iv not in frozen_set and iv not in movable_in_group
    ]
    leftovers.sort(key=lambda iv: (iv.est, -iv.length))
    for iv in leftovers:
        # Honour generic pairwise precedences by a pre-pass on placed preds.
        est = iv.est
        for p in model.precedences:
            if p.b is iv and p.a in state.starts:
                est = max(est, state.starts[p.a] + p.a.length + p.delay)
        s = state.place_master(iv, est=est)
        if s is None:
            return None

    sol = Solution(starts=state.starts, choices=state.choices)
    if model.objective_bools is not None:
        sol.objective = sol.evaluate_objective(model)
    return sol


def best_warm_start(
    model: CpModel, orders: Sequence[str] = ORDERINGS
) -> Optional[Solution]:
    """Run several orderings, keep the schedule with fewest late jobs."""
    best: Optional[Solution] = None
    for order in orders:
        sol = list_schedule(model, order)
        if sol is None:
            continue
        if (
            best is None
            or (sol.objective or 0) < (best.objective or 0)
        ):
            best = sol
        if best.objective == 0:
            break
    return best
