"""Schedule types and validation.

A *schedule* is what MRCP-RM hands to the cluster: for every task, the
resource it runs on, the slot within the resource, and the assigned start
time (the paper's decision variables ``x_tr`` and ``a_t``).

:func:`validate_schedule` is the independent referee used by tests and by
the executor's defensive checks: capacity, slot-exclusivity, barrier and
earliest-start-time constraints are all re-verified from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.workload.entities import Job, Resource, Task, TaskKind


class SchedulingError(RuntimeError):
    """Raised when the resource manager cannot produce a valid schedule.

    Mirrors Table 2 line 24 ("throw exception"): on well-formed inputs the
    CP model is always feasible, so this indicates a bug or a malformed
    system state, not an over-constrained workload.
    """


#: Which slot pool a task occupies -- the task's own kind, under the name
#: the scheduling side uses for it.
SlotKind = TaskKind


@dataclass(frozen=True)
class TaskAssignment:
    """One task placed on (resource, slot) starting at ``start``."""

    task: Task
    resource_id: int
    slot_index: int
    start: int

    @property
    def end(self) -> int:
        return self.start + self.task.duration

    @property
    def slot_kind(self) -> SlotKind:
        return self.task.kind

    def slot_key(self) -> Tuple[int, SlotKind, int]:
        """Hashable identity of the occupied slot: (resource, kind, index)."""
        return (self.resource_id, self.slot_kind, self.slot_index)


@dataclass
class Schedule:
    """A set of task assignments with convenient lookups."""

    assignments: Dict[str, TaskAssignment] = field(default_factory=dict)

    def add(self, assignment: TaskAssignment) -> None:
        """Insert or replace the assignment for its task."""
        self.assignments[assignment.task.id] = assignment

    def get(self, task_id: str) -> Optional[TaskAssignment]:
        """Assignment for ``task_id``, or None when unscheduled."""
        return self.assignments.get(task_id)

    def __len__(self) -> int:
        return len(self.assignments)

    def __iter__(self):
        return iter(self.assignments.values())

    def by_resource(self) -> Dict[Tuple[int, SlotKind], List[TaskAssignment]]:
        """Assignments per (resource, slot kind), sorted by start time.

        This is the per-resource "scheduled tasks sorted by start time" view
        that the Table 2 algorithm walks (lines 5-8).
        """
        out: Dict[Tuple[int, SlotKind], List[TaskAssignment]] = {}
        for a in self.assignments.values():
            out.setdefault((a.resource_id, a.slot_kind), []).append(a)
        for lst in out.values():
            lst.sort(key=lambda a: (a.start, a.task.id))
        return out

    def job_completion(self, job: Job) -> int:
        """Completion time of ``job`` under this schedule."""
        ends = [
            self.assignments[t.id].end for t in job.tasks if t.id in self.assignments
        ]
        if not ends:
            raise KeyError(f"job {job.id} has no scheduled tasks")
        return max(ends)


def validate_schedule(
    schedule: Schedule,
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: Optional[int] = None,
    frozen_task_ids: Iterable[str] = (),
) -> List[str]:
    """Re-verify every constraint of the formulation; returns violations.

    ``frozen_task_ids`` are tasks that were already running when the
    schedule was produced -- their starts may legitimately precede job
    earliest start times (they were fixed by earlier scheduling rounds).
    """
    problems: List[str] = []
    frozen = set(frozen_task_ids)
    resource_by_id = {r.id: r for r in resources}

    # --- slot exclusivity and capacity
    slot_usage: Dict[Tuple[int, SlotKind, int], List[TaskAssignment]] = {}
    # (resource, kind) -> (time, +demand) / (time, -demand) usage events
    kind_events: Dict[Tuple[int, SlotKind], List[Tuple[int, int]]] = {}
    for a in schedule:
        res = resource_by_id.get(a.resource_id)
        if res is None:
            problems.append(f"task {a.task.id}: unknown resource {a.resource_id}")
            continue
        cap = res.map_capacity if a.slot_kind is SlotKind.MAP else res.reduce_capacity
        if not (0 <= a.slot_index < cap):
            problems.append(
                f"task {a.task.id}: slot index {a.slot_index} outside "
                f"0..{cap - 1} on resource {a.resource_id}"
            )
        slot_usage.setdefault(a.slot_key(), []).append(a)
        events = kind_events.setdefault((a.resource_id, a.slot_kind), [])
        start, end, demand = a.start, a.end, a.task.demand
        if end > start and demand:  # TimetableProfile ignores empty usage
            events += ((start, demand), (end, -demand))

    for key, assignments in slot_usage.items():
        if len(assignments) < 2:
            continue
        assignments.sort(key=lambda a: a.start)
        for prev, cur in zip(assignments, assignments[1:]):
            if cur.start < prev.end:
                problems.append(
                    f"slot {key}: tasks {prev.task.id} and {cur.task.id} overlap"
                )

    for (rid, kind), events in kind_events.items():
        # Ends sort before starts at one instant (-d < +d), as in a profile.
        peak = height = 0
        for _t, delta in sorted(events):
            height += delta
            if height > peak:
                peak = height
        res = resource_by_id[rid]
        cap = res.map_capacity if kind is SlotKind.MAP else res.reduce_capacity
        if peak > cap:
            problems.append(
                f"resource {rid} {kind.value}: peak usage {peak} > capacity {cap}"
            )

    # --- per-job constraints
    assigned = schedule.assignments.get
    for job in jobs:
        of = {t.id: a for t in job.tasks if (a := assigned(t.id)) is not None}
        if not of:
            continue
        # earliest start times (constraint 2) -- frozen tasks exempt
        for a in of.values():
            if a.task.id in frozen:
                continue
            if a.start < job.earliest_start:
                problems.append(
                    f"task {a.task.id}: starts {a.start} before job {job.id} "
                    f"earliest start {job.earliest_start}"
                )
            if now is not None and a.start < now:
                problems.append(
                    f"task {a.task.id}: starts {a.start} in the past (now={now})"
                )
        # stage barriers: constraint (3) for MapReduce, per-edge for DAGs
        # (including data-transfer delays on workflow edges)
        for pred_tasks, succ_tasks, delay, tag in _stage_edges(job):
            pred_ends = [of[t.id].end for t in pred_tasks if t.id in of]
            succ_starts = [of[t.id].start for t in succ_tasks if t.id in of]
            if pred_ends and succ_starts and min(succ_starts) < max(pred_ends) + delay:
                problems.append(
                    f"job {job.id} {tag}: successor stage starts "
                    f"{min(succ_starts)} before predecessor ends "
                    f"{max(pred_ends)} (+ delay {delay})"
                )
    return problems


def _stage_edges(job):
    """Yield (pred tasks, succ tasks, transfer delay, label) per barrier edge.

    MapReduce jobs expose the single map -> reduce edge (delay 0); workflow
    jobs (anything with ``topological_structure``) expose one edge per DAG
    arc with its data-transfer delay.
    """
    if hasattr(job, "topological_structure"):
        stages, preds, delays = job.topological_structure()
        for i, ps in enumerate(preds):
            for p, d in zip(ps, delays[i]):
                yield (
                    stages[p].tasks,
                    stages[i].tasks,
                    d,
                    f"{stages[p].name}->{stages[i].name}",
                )
        return
    if job.map_tasks and job.reduce_tasks:
        yield job.map_tasks, job.reduce_tasks, 0, "map->reduce"
