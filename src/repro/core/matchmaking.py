"""Section V.D: separating matchmaking from scheduling.

In combined mode the CP solver produces a *single-resource schedule*: start
times that respect the aggregated map/reduce slot capacities.  This module
maps that schedule onto physical resources:

1. **Unit-capacity placement** -- each (resource, slot) pair is a unit
   resource; tasks are processed in start-time order and each is placed on
   the free unit slot leaving the *smallest gap* between the slot's previous
   occupant and the task's start (the paper's best-gap rule, with its
   r1/r2 example reproduced in the tests).
2. **Regrouping** -- unit slots belong to physical resources; the helper
   :func:`regroup_unit_resources` reproduces the paper's redistribution of
   slot totals over user-specified resource counts (nm/nr example).

Placement books onto a :class:`FrozenBase` of committed work, one standing
base per run -- the simulator's (synced to the executor's frozen set at each
invocation) and the admission service's -- whose index of every idle gap
makes each best-gap pick one bisect.  Greedy placement in start order is
sure to find free slots *only when every frozen start is at or before every
movable start* (the simulator: frozen tasks started in the past): the
combined cumulative bounds the active tasks by the slot total and
start-order interval-graph colouring succeeds.  The service's work mostly
starts in the future, where a capacity-feasible combined schedule can have
no best-gap mapping: placement then raises
:class:`~repro.core.schedule.SchedulingError`.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.schedule import SchedulingError, SlotKind, TaskAssignment
from repro.cp.profile import TimetableProfile
from repro.workload.entities import Resource, Task

_KINDS = (SlotKind.MAP, SlotKind.REDUCE)
_OPEN = float("inf")  # where a slot's trailing gap ends


@dataclass
class UnitSlot:
    """One unit-capacity resource: a (resource, slot index) pair."""

    resource_id: int
    slot_index: int
    #: Sorted, non-overlapping busy windows (start, end).
    busy: List[Tuple[int, int]] = field(default_factory=list)
    #: Placement pool and tie order among its candidates; set by FrozenBase.
    pool: object = None
    rank: int = 0

    def gap_if_free(self, start: int, end: int) -> Optional[int]:
        """Idle time before ``start`` if ``[start, end)`` is free, else None.

        The gap runs from the previous occupant's end to ``start``; an empty
        prefix counts from time 0, matching the paper's example arithmetic.
        """
        busy = self.busy
        i = bisect.bisect_right(busy, (start, _OPEN))
        lo = busy[i - 1][1] if i else 0
        hi = busy[i][0] if i < len(busy) else _OPEN
        return start - lo if lo <= start and end <= hi else None

    def occupy(self, start: int, end: int) -> int:
        """Book ``[start, end)``, returning its index; SchedulingError on overlap."""
        busy = self.busy
        i = bisect.bisect_right(busy, (start, _OPEN))
        if (i and busy[i - 1][1] > start) or (i < len(busy) and busy[i][0] < end):
            raise SchedulingError(
                f"slot r{self.resource_id}/{self.slot_index}: "
                f"[{start},{end}) overlaps existing booking"
            )
        busy.insert(i, (start, end))
        return i


class FrozenBase:
    """Committed work: load profile per pool (slot kind, or (resource id,
    kind) with ``per_resource``), unit-slot book, and the live assignments.

    The best-gap index, kept current by every booking and release: per pool,
    each non-empty idle gap of its slots (before, between and after their
    bookings) as (lo, -candidate order, hi), sorted.  The scan's pick for a
    task is the gap of largest ``lo <= start``, lowest order among ties, with
    ``hi >= max(end, start + 1)``: one bisect, then a walk past shorter gaps.
    Only a task bound to a pool the base does not index is placed by scanning.
    """

    def __init__(self, resources: Sequence[Resource], per_resource: bool = False):
        self.per_resource = per_resource
        self.slots: Dict[Tuple[int, SlotKind], List[UnitSlot]] = {}
        self._flat: Dict[SlotKind, List[UnitSlot]] = {k: [] for k in _KINDS}
        for r in resources:
            for kind, cap in zip(_KINDS, (r.map_capacity, r.reduce_capacity)):
                pool = self.slots[r.id, kind] = [UnitSlot(r.id, k) for k in range(cap)]
                self._flat[kind].extend(pool)
        self._pools = self.slots if per_resource else self._flat
        self._gaps: Dict[object, List[Tuple[int, int, float]]] = {}
        for pool, candidates in self._pools.items():
            for rank, slot in enumerate(candidates):
                slot.pool, slot.rank = pool, rank
            self._gaps[pool] = sorted((0, -r, _OPEN) for r in range(len(candidates)))
        #: task id -> assignment of every booked task.
        self.live: Dict[str, TaskAssignment] = {}
        #: task id -> its slot and the end it was booked with (runtime
        #: perturbation may rebase a live task's end).
        self._booked: Dict[str, Tuple[UnitSlot, int]] = {}
        #: Built on first use, kept current after: load profile per pool, the
        #: live work's (end, task id) sorted, and its ends alone in that order.
        self._profiles: Optional[Dict[object, TimetableProfile]] = None
        self._by_end: List[Tuple[int, str]] = []
        self._ends: List[int] = []

    def _indexes(self) -> Dict[object, TimetableProfile]:
        if self._profiles is None:
            self._profiles = defaultdict(TimetableProfile)
            for task_id, a in self.live.items():
                slot, end = self._booked[task_id]
                self._index(a, slot.pool, end, 1)
        return self._profiles

    @property
    def profiles(self) -> Dict[object, TimetableProfile]:
        """Load profile per pool (a pool without an entry carries no load)."""
        return self._indexes()

    @property
    def ends(self) -> List[int]:
        """End times of the live work, sorted."""
        self._indexes()
        return self._ends

    def _index(self, a: TaskAssignment, pool: object, end: int, sign: int) -> None:
        self._profiles[pool].add(a.start, end, sign * a.task.demand)
        i = bisect.bisect_left(self._by_end, (end, a.task.id))
        if sign > 0:
            self._by_end.insert(i, (end, a.task.id))
            self._ends.insert(i, end)
        else:
            del self._by_end[i], self._ends[i]

    def _regap(self, slot: UnitSlot, i: int, booked: bool) -> None:
        """Split the gap ``busy[i]`` was booked into, or merge the two it leaves."""
        busy, gaps, rank = slot.busy, self._gaps[slot.pool], -slot.rank
        start, end = busy[i]
        lo = busy[i - 1][1] if i else 0
        hi = busy[i + 1][0] if i + 1 < len(busy) else _OPEN
        j = bisect.bisect_left(gaps, (lo, rank))  # non-empty gaps: one per lo
        if lo < start:
            gaps[j] = (lo, rank, start if booked else hi)
        elif booked:  # hi > start = lo: that gap was kept
            del gaps[j]
        elif lo < hi:
            gaps.insert(j, (lo, rank, hi))
        if end < hi and booked:
            bisect.insort(gaps, (end, rank, hi))
        elif end < hi:
            del gaps[bisect.bisect_left(gaps, (end, rank))]

    def _book(self, a: TaskAssignment, slot: UnitSlot) -> None:
        end = a.end
        self._regap(slot, slot.occupy(a.start, end), True)
        self.live[a.task.id] = a
        self._booked[a.task.id] = (slot, end)
        if self._profiles is not None:
            self._index(a, slot.pool, end, 1)

    def add(self, assignments: Iterable[TaskAssignment]) -> None:
        """Book work that is already placed, on its recorded slot."""
        for a in assignments:
            pool = self.slots.get((a.resource_id, a.slot_kind))
            if pool is None or not 0 <= a.slot_index < len(pool):
                raise SchedulingError(
                    f"frozen task {a.task.id}: slot "
                    f"r{a.resource_id}/{a.slot_index} does not exist"
                )
            self._book(a, pool[a.slot_index])

    def remove(self, assignments: Iterable[TaskAssignment]) -> None:
        """Release booked work, at the end it was booked with: its slot time,
        its load, its live entry."""
        for a in assignments:
            del self.live[a.task.id]
            slot, end = self._booked.pop(a.task.id)
            i = bisect.bisect_left(slot.busy, (a.start, end))
            self._regap(slot, i, False)
            del slot.busy[i]
            if self._profiles is not None:
                self._index(a, slot.pool, end, -1)

    def retire(self, now: int) -> None:
        """Release the work that ended at or before ``now``."""
        self._indexes()
        done = self._by_end[: bisect.bisect_left(self._by_end, (now + 1,))]
        self.remove([self.live[task_id] for _end, task_id in done])

    def sync(self, frozen: Sequence[TaskAssignment]) -> None:
        """Hold exactly ``frozen``: release every other live entry and every
        one rebased since it was booked, then book what is missing."""
        keep = {a.task.id: a for a in frozen}
        booked, live = self._booked, self.live.items()
        self.remove(
            [a for t, a in live if keep.get(t) is not a or booked[t][1] != a.end]
        )
        self.add([a for a in frozen if a.task.id not in booked])

    def end(self) -> int:
        """The largest end of the live work (0 when there is none)."""
        return self.ends[-1] if self.live else 0

    def place(
        self, movable: Iterable[Tuple[Task, int, Optional[int]]]
    ) -> List[TaskAssignment]:
        """Best-gap placement of (task, start, resource id or None), booked.

        In (start, id) order, a task bound to a resource picks among its slots
        of the task's kind, an unbound one among every resource's (input
        order, slots by index); the first strictly smallest gap wins.  On a
        :class:`SchedulingError` the tasks placed before are released.
        """
        placed: List[TaskAssignment] = []
        try:
            for task, start, resource_id in sorted(
                movable, key=lambda p: (p[1], p[0].id)
            ):
                kind = task.kind
                end = start + task.duration
                if resource_id is None:
                    pool, candidates, scope = kind, self._flat[kind], "combined"
                else:
                    pool, scope = (resource_id, kind), f"per-resource (r{resource_id})"
                    candidates = self.slots.get(pool)
                    if candidates is None:
                        raise SchedulingError(f"unknown resource {resource_id}")
                gaps = self._gaps.get(pool)  # None: not one of the base's pools
                if gaps is not None:
                    fits = max(end, start + 1)
                    i = bisect.bisect_right(gaps, (start, 1)) - 1
                    while i >= 0 and gaps[i][2] < fits:
                        i -= 1
                    best = candidates[-gaps[i][1]] if i >= 0 else None
                else:
                    best, best_gap = None, None
                    for slot in candidates:
                        gap = slot.gap_if_free(start, end)
                        if gap is not None and (best_gap is None or gap < best_gap):
                            best, best_gap = slot, gap
                if best is None:
                    raise SchedulingError(
                        f"no free {kind.value} slot for task {task.id} at "
                        f"[{start},{end}) -- {scope} capacity invariant violated"
                    )
                a = TaskAssignment(task, best.resource_id, best.slot_index, start)
                self._book(a, best)
                placed.append(a)
        except BaseException:
            self.remove(placed)
            raise
        return placed


def _placed(movable, frozen, resources, base, joint=False) -> List[TaskAssignment]:
    if base is None:
        base = FrozenBase(resources, joint)
        base.add(frozen)
    return list(frozen) + base.place(movable)


def decompose_combined_schedule(
    movable: Sequence[Tuple[Task, int]],
    frozen: Sequence[TaskAssignment],
    resources: Sequence[Resource],
    base: Optional[FrozenBase] = None,
) -> List[TaskAssignment]:
    """Map a combined-resource schedule onto physical resources.

    ``movable`` is (task, assigned start) for every task the solver placed;
    ``frozen`` are the running tasks already pinned to slots -- booked on a
    fresh base, or already on the standing ``base``, which then keeps the new
    placements.  Returns the complete assignment list (frozen ones first).
    """
    return _placed(((t, s, None) for t, s in movable), frozen, resources, base)


def assign_slots_within_resources(
    movable: Sequence[Tuple[Task, int, int]],
    frozen: Sequence[TaskAssignment],
    resources: Sequence[Resource],
    base: Optional[FrozenBase] = None,
) -> List[TaskAssignment]:
    """JOINT mode helper: the solver chose (task, start, resource); pick the
    slot index within each resource with the same best-gap rule."""
    return _placed(movable, frozen, resources, base, joint=True)


def regroup_unit_resources(
    total_map_slots: int,
    total_reduce_slots: int,
    num_map_resources: int,
    num_reduce_resources: int,
    first_resource_id: int = 0,
) -> List[Resource]:
    """The paper's V.D step 2: redistribute slot totals over resources.

    ``max(nm, nr)`` resources are created; map slots are divided evenly over
    the first ``nm``, reduce slots over the first ``nr`` (remainders spread
    one extra slot at a time, from the tail -- reproducing the paper's
    "20 of the 30 resources have 3 reduce slots and the remaining 10 have 4"
    example for 100 slots over 30 resources).
    """
    if num_map_resources < 0 or num_reduce_resources < 0:
        raise ValueError("resource counts must be non-negative")
    if total_map_slots > 0 and num_map_resources == 0:
        raise ValueError("map slots exist but no map resources requested")
    if total_reduce_slots > 0 and num_reduce_resources == 0:
        raise ValueError("reduce slots exist but no reduce resources requested")
    n = max(num_map_resources, num_reduce_resources)
    if n == 0:
        return []

    def spread(total: int, count: int) -> List[int]:
        base, extra = divmod(total, count or 1)  # no resources, no slots
        # The first (count - extra) resources get `base`, the next base + 1,
        # the rest none.
        return [base] * (count - extra) + [base + 1] * extra + [0] * (n - count)

    map_caps = spread(total_map_slots, num_map_resources)
    reduce_caps = spread(total_reduce_slots, num_reduce_resources)
    return [
        Resource(first_resource_id + i, map_caps[i], reduce_caps[i]) for i in range(n)
    ]
