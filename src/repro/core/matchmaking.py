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

Feasibility is guaranteed: the combined cumulative constraint bounds the
number of simultaneously active tasks by the slot total, and -- because
every movable task starts at or after "now" while frozen tasks started in
the past -- greedy placement in start order never runs out of free slots
(interval-graph colouring).  A failure therefore raises
:class:`~repro.core.schedule.SchedulingError` as a genuine invariant
violation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.schedule import SchedulingError, SlotKind, TaskAssignment
from repro.workload.entities import Resource, Task


@dataclass
class UnitSlot:
    """One unit-capacity resource: a (resource, slot index) pair."""

    resource_id: int
    slot_index: int
    #: Sorted, non-overlapping busy windows (start, end).
    busy: List[Tuple[int, int]] = field(default_factory=list)

    def gap_if_free(self, start: int, end: int) -> Optional[int]:
        """Idle time before ``start`` if ``[start, end)`` is free, else None.

        The gap runs from the previous occupant's end to ``start``; an empty
        prefix counts from time 0, matching the paper's example arithmetic.
        """
        busy = self.busy
        i = bisect.bisect_right(busy, (start, float("inf")))
        prev_end = 0
        if i > 0:
            prev_end = busy[i - 1][1]
            if prev_end > start:
                return None
        if i < len(busy) and busy[i][0] < end:
            return None
        return start - prev_end

    def occupy(self, start: int, end: int) -> None:
        """Book ``[start, end)``; raises SchedulingError on overlap."""
        if self.gap_if_free(start, end) is None:
            raise SchedulingError(
                f"slot r{self.resource_id}/{self.slot_index}: "
                f"[{start},{end}) overlaps existing booking"
            )
        bisect.insort(self.busy, (start, end))


def _place(
    movable: Iterable[Tuple[Task, int, Optional[int]]],
    frozen: Sequence[TaskAssignment],
    resources: Sequence[Resource],
) -> List[TaskAssignment]:
    """Best-gap slot placement of (task, start, resource id or None).

    Frozen assignments are booked on their recorded slots first; movable
    tasks follow in (start, id) order.  A task bound to a resource picks
    among that resource's slots of its kind, an unbound one among every
    resource's (resources in input order, slots by index); the first slot
    with the strictly smallest gap wins.
    """
    pools: Dict[Tuple[int, SlotKind], List[UnitSlot]] = {}
    flat: Dict[SlotKind, List[UnitSlot]] = {SlotKind.MAP: [], SlotKind.REDUCE: []}
    for r in resources:
        for kind, cap in (
            (SlotKind.MAP, r.map_capacity),
            (SlotKind.REDUCE, r.reduce_capacity),
        ):
            pool = pools[r.id, kind] = [UnitSlot(r.id, k) for k in range(cap)]
            flat[kind].extend(pool)

    for a in frozen:
        pool = pools.get((a.resource_id, a.slot_kind))
        if pool is None or a.slot_index >= len(pool):
            raise SchedulingError(
                f"frozen task {a.task.id}: slot "
                f"r{a.resource_id}/{a.slot_index} does not exist"
            )
        pool[a.slot_index].occupy(a.start, a.end)

    out: List[TaskAssignment] = list(frozen)
    for task, start, resource_id in sorted(
        movable, key=lambda p: (p[1], p[0].id)
    ):
        kind = task.kind
        end = start + task.duration
        if resource_id is None:
            candidates, scope = flat[kind], "combined"
        else:
            candidates = pools.get((resource_id, kind))
            if candidates is None:
                raise SchedulingError(f"unknown resource {resource_id}")
            scope = f"per-resource (r{resource_id})"
        best: Optional[UnitSlot] = None
        best_gap: Optional[int] = None
        for slot in candidates:
            gap = slot.gap_if_free(start, end)
            if gap is not None and (best_gap is None or gap < best_gap):
                best, best_gap = slot, gap
        if best is None:
            raise SchedulingError(
                f"no free {kind.value} slot for task {task.id} at "
                f"[{start},{end}) -- {scope} capacity invariant violated"
            )
        best.occupy(start, end)
        out.append(
            TaskAssignment(
                task=task,
                resource_id=best.resource_id,
                slot_index=best.slot_index,
                start=start,
            )
        )
    return out


def decompose_combined_schedule(
    movable: Sequence[Tuple[Task, int]],
    frozen: Sequence[TaskAssignment],
    resources: Sequence[Resource],
) -> List[TaskAssignment]:
    """Map a combined-resource schedule onto physical resources.

    ``movable`` is (task, assigned start) for every task the solver placed;
    ``frozen`` are the running tasks already pinned to slots.  Returns the
    complete assignment list -- frozen assignments pass through unchanged.
    """
    return _place(((t, s, None) for t, s in movable), frozen, resources)


def assign_slots_within_resources(
    movable: Sequence[Tuple[Task, int, int]],
    frozen: Sequence[TaskAssignment],
    resources: Sequence[Resource],
) -> List[TaskAssignment]:
    """JOINT mode helper: the solver chose (task, start, resource); pick the
    slot index within each resource with the same best-gap rule."""
    return _place(movable, frozen, resources)


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
        if count == 0:
            return []
        base, extra = divmod(total, count)
        # The first (count - extra) resources get `base`, the rest base + 1.
        return [base] * (count - extra) + [base + 1] * extra

    map_caps = spread(total_map_slots, num_map_resources) + [0] * (
        n - num_map_resources
    )
    reduce_caps = spread(total_reduce_slots, num_reduce_resources) + [0] * (
        n - num_reduce_resources
    )
    return [
        Resource(first_resource_id + i, map_caps[i], reduce_caps[i])
        for i in range(n)
    ]
