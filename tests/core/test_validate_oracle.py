"""``validate_schedule`` equals the profile-based checker it replaced.

:func:`reference_validate` is the former implementation (one
:class:`TimetableProfile` per (resource, kind), repeated ``Schedule.get``
lookups), kept here as the oracle.  Generated schedules -- broken ones with
unknown resources, bad slot indexes, overlaps, over-capacity peaks, demand
above 1, zero-length tasks, EST / ``now`` violations and workflow edges with
transfer delays, and the valid ones real runs produce -- must yield the same
``problems`` list, order included.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

import repro.core.mrcp_rm as mrcp_rm
from repro.core import MrcpRm, MrcpRmConfig
from repro.core.schedule import (
    Schedule,
    SlotKind,
    TaskAssignment,
    validate_schedule,
)
from repro.cp.profile import TimetableProfile
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload import SyntheticWorkloadParams, generate_synthetic_workload
from repro.workload.entities import Job, Resource, Task, TaskKind, make_uniform_cluster
from repro.workload.workflows import Stage, WorkflowJob


def reference_validate(
    schedule: Schedule,
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: Optional[int] = None,
    frozen_task_ids: Iterable[str] = (),
) -> List[str]:
    problems: List[str] = []
    frozen = set(frozen_task_ids)
    resource_by_id = {r.id: r for r in resources}

    slot_usage: Dict[Tuple[int, SlotKind, int], List[TaskAssignment]] = {}
    kind_profiles: Dict[Tuple[int, SlotKind], TimetableProfile] = {}
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
        key = (a.resource_id, a.slot_kind)
        prof = kind_profiles.setdefault(key, TimetableProfile())
        prof.add(a.start, a.end, a.task.demand)

    for key, assignments in slot_usage.items():
        assignments.sort(key=lambda a: a.start)
        for prev, cur in zip(assignments, assignments[1:]):
            if cur.start < prev.end:
                problems.append(
                    f"slot {key}: tasks {prev.task.id} and {cur.task.id} overlap"
                )

    for (rid, kind), prof in kind_profiles.items():
        res = resource_by_id[rid]
        cap = res.map_capacity if kind is SlotKind.MAP else res.reduce_capacity
        peak = prof.max_height()
        if peak > cap:
            problems.append(
                f"resource {rid} {kind.value}: peak usage {peak} > capacity {cap}"
            )

    for job in jobs:
        scheduled = [
            schedule.get(t.id) for t in job.tasks if schedule.get(t.id) is not None
        ]
        if not scheduled:
            continue
        for a in scheduled:
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
        for pred, succ, delay in job.topological_structure().barriers:
            pred_ends = [
                schedule.get(t.id).end
                for t in pred.tasks
                if schedule.get(t.id) is not None
            ]
            succ_starts = [
                schedule.get(t.id).start
                for t in succ.tasks
                if schedule.get(t.id) is not None
            ]
            if pred_ends and succ_starts and min(succ_starts) < max(pred_ends) + delay:
                problems.append(
                    f"job {job.id} {pred.name}->{succ.name}: successor stage starts "
                    f"{min(succ_starts)} before predecessor ends "
                    f"{max(pred_ends)} (+ delay {delay})"
                )
    return problems


def task(draw, tid: str, job_id: int, kind: TaskKind) -> Task:
    duration = draw(st.integers(0, 8))  # zero-length tasks included
    return Task(tid, job_id, kind, duration, demand=draw(st.integers(0, 2)))


@st.composite
def cases(draw):
    """Resources, jobs (MapReduce and one DAG workflow), and a random,
    mostly broken schedule over them."""
    resources = [
        Resource(r, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for r in range(draw(st.integers(1, 3)))
    ]
    jobs: list = []
    for j in range(draw(st.integers(0, 3))):
        maps = [task(draw, f"j{j}m{i}", j, TaskKind.MAP) for i in range(3)]
        reduces = [task(draw, f"j{j}r{i}", j, TaskKind.REDUCE) for i in range(2)]
        est = draw(st.integers(0, 10))
        jobs.append(Job(j, 0, est, 100, maps[: draw(st.integers(0, 3))], reduces))
    if draw(st.booleans()):
        names = ("a", "b", "c")
        stages = [
            Stage(n, [task(draw, f"w{n}{i}", 9, TaskKind.MAP) for i in range(2)])
            for n in names
        ]
        edges = [("a", "b"), ("a", "c"), ("b", "c")]
        delays = {e: draw(st.integers(0, 4)) for e in edges if draw(st.booleans())}
        est = draw(st.integers(0, 10))
        jobs.append(WorkflowJob(9, 0, est, 100, stages, edges, delays))
    schedule = Schedule()
    for t in [t for job in jobs for t in job.tasks]:
        if draw(st.integers(0, 4)) == 0:
            continue  # unscheduled
        rid = draw(st.integers(0, len(resources)))  # len: unknown resource
        index = draw(st.integers(-1, 2))  # -1, or past the capacity
        schedule.add(TaskAssignment(t, rid, index, draw(st.integers(0, 20))))
    frozen = [a.task.id for a in schedule if draw(st.integers(0, 3)) == 0]
    now = draw(st.one_of(st.none(), st.integers(0, 12)))
    return schedule, jobs, resources, now, frozen


@given(cases())
@settings(max_examples=400, deadline=None)
def test_generated_schedules_get_the_same_problems(case):
    schedule, jobs, resources, now, frozen = case
    got = validate_schedule(schedule, jobs, resources, now, frozen)
    assert got == reference_validate(schedule, jobs, resources, now, frozen)


def test_every_kind_of_problem_is_reported_in_order():
    r0 = Resource(0, 1, 1)
    m = [Task(f"m{i}", 0, TaskKind.MAP, 5, demand=d) for i, d in enumerate((1, 2, 1))]
    r = Task("r", 0, TaskKind.REDUCE, 0)  # zero length: no load, no overlap
    job = Job(0, 0, 4, 100, m, [r])
    schedule = Schedule()
    for a in (
        TaskAssignment(m[0], 0, 0, 0),
        TaskAssignment(m[1], 0, 0, 3),
        TaskAssignment(m[2], 7, 0, 4),
        TaskAssignment(r, 0, 1, 6),
    ):
        schedule.add(a)
    problems = validate_schedule(schedule, [job], [r0], now=2, frozen_task_ids=["m1"])
    assert problems == reference_validate(schedule, [job], [r0], 2, ["m1"])
    assert problems == [
        "task m2: unknown resource 7",
        "task r: slot index 1 outside 0..0 on resource 0",
        "slot (0, <TaskKind.MAP: 'map'>, 0): tasks m0 and m1 overlap",
        "resource 0 map: peak usage 3 > capacity 1",
        "task m0: starts 0 before job 0 earliest start 4",
        "task m0: starts 0 in the past (now=2)",
        "job 0 map->reduce: successor stage starts 6 before predecessor ends "
        "9 (+ delay 0)",
    ]


def test_the_schedules_real_runs_install_get_the_same_problems(monkeypatch):
    calls = []

    def both(*args, **kwargs):
        got = validate_schedule(*args, **kwargs)
        calls.append(got)
        assert got == reference_validate(*args, **kwargs)
        return got

    monkeypatch.setattr(mrcp_rm, "validate_schedule", both)
    params = SyntheticWorkloadParams(
        num_jobs=12,
        map_tasks_range=(1, 6),
        reduce_tasks_range=(1, 4),
        e_max=20,
        s_max=100,
        arrival_rate=0.1,
        total_map_slots=4,
        total_reduce_slots=4,
    )
    sim = Simulator()
    config = MrcpRmConfig(solver=SolverParams(time_limit=30.0, tree_fail_limit=200))
    rm = MrcpRm(sim, make_uniform_cluster(2, 2, 2), config, MetricsCollector())
    for job in generate_synthetic_workload(params, seed=3):
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    sim.run()
    assert calls and not any(calls)
