"""Schedule types and the independent validator."""

from repro.core.schedule import (
    Schedule,
    SlotKind,
    TaskAssignment,
    validate_schedule,
)
from repro.workload.entities import Resource, TaskKind

from tests.conftest import make_job


def _assign(task, rid=0, slot=0, start=0):
    return TaskAssignment(task=task, resource_id=rid, slot_index=slot, start=start)


def test_assignment_properties():
    job = make_job(0, (5,), (3,))
    a = _assign(job.map_tasks[0], rid=1, slot=0, start=10)
    assert a.end == 15
    assert a.slot_kind is SlotKind.MAP
    assert a.slot_key() == (1, SlotKind.MAP, 0)
    r = _assign(job.reduce_tasks[0])
    assert r.slot_kind is SlotKind.REDUCE


def test_schedule_lookup():
    job = make_job(0, (5, 5), (3,))
    s = Schedule()
    s.add(_assign(job.map_tasks[0], rid=0, slot=0, start=10))
    s.add(_assign(job.map_tasks[1], rid=0, slot=1, start=0))
    s.add(_assign(job.reduce_tasks[0], rid=0, slot=0, start=20))
    assert len(s) == 3
    assert s.get(job.map_tasks[1].id).start == 0
    assert s.get("absent") is None
    assert s.job_completion(job) == 23


def test_validate_accepts_good_schedule():
    job = make_job(0, (5, 5), (3,), deadline=100)
    resources = [Resource(0, 2, 1)]
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 0))
    s.add(_assign(job.map_tasks[1], 0, 1, 0))
    s.add(_assign(job.reduce_tasks[0], 0, 0, 5))
    assert validate_schedule(s, [job], resources) == []


def test_validate_detects_unknown_resource():
    job = make_job(0, (5,))
    s = Schedule()
    s.add(_assign(job.map_tasks[0], rid=7))
    problems = validate_schedule(s, [job], [Resource(0, 1, 1)])
    assert any("unknown resource" in p for p in problems)


def test_validate_detects_slot_overlap():
    job = make_job(0, (5, 5))
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 0))
    s.add(_assign(job.map_tasks[1], 0, 0, 3))  # same slot, overlapping
    problems = validate_schedule(s, [job], [Resource(0, 2, 1)])
    assert any("overlap" in p for p in problems)


def test_validate_detects_slot_index_out_of_range():
    job = make_job(0, (5,))
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 5, 0))
    problems = validate_schedule(s, [job], [Resource(0, 2, 1)])
    assert any("slot index" in p for p in problems)


def test_validate_detects_est_violation():
    job = make_job(0, (5,), earliest_start=10, deadline=100)
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 5))
    problems = validate_schedule(s, [job], [Resource(0, 1, 1)])
    assert any("earliest start" in p for p in problems)


def test_frozen_tasks_exempt_from_est():
    job = make_job(0, (5,), earliest_start=10, deadline=100)
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 5))
    problems = validate_schedule(
        s, [job], [Resource(0, 1, 1)], frozen_task_ids=[job.map_tasks[0].id]
    )
    assert problems == []


def test_validate_detects_barrier_violation():
    job = make_job(0, (5,), (3,), deadline=100)
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 0))
    s.add(_assign(job.reduce_tasks[0], 0, 0, 2))  # before map ends
    problems = validate_schedule(s, [job], [Resource(0, 1, 1)])
    assert any("before" in p for p in problems)


def test_validate_detects_start_in_past():
    job = make_job(0, (5,))
    s = Schedule()
    s.add(_assign(job.map_tasks[0], 0, 0, 3))
    problems = validate_schedule(s, [job], [Resource(0, 1, 1)], now=5)
    assert any("past" in p for p in problems)


def test_slot_kind_is_derived_from_task_kind():
    """An assignment cannot disagree with its task about the slot kind --
    it is derived -- so a reduce task always lands in the reduce books."""
    job = make_job(0, (5,), (3,))
    a = _assign(job.reduce_tasks[0], 0, 0, 10)
    assert a.slot_kind is SlotKind.REDUCE
    job.reduce_tasks[0].kind = TaskKind.MAP
    assert a.slot_kind is SlotKind.MAP  # follows the task, no divergence


def test_validate_workflow_stage_edges():
    """DAG workflows are validated per precedence edge."""
    from repro.workload.workflows import Stage, WorkflowJob
    from repro.workload.entities import Task

    t_a = Task("wa", 5, TaskKind.MAP, 4)
    t_b = Task("wb", 5, TaskKind.MAP, 4)
    wf = WorkflowJob(
        id=5, arrival_time=0, earliest_start=0, deadline=100,
        stages=[Stage("A", [t_a]), Stage("B", [t_b])],
        edges=[("A", "B")],
    )
    good = Schedule()
    good.add(_assign(t_a, 0, 0, 0))
    good.add(_assign(t_b, 0, 1, 4))
    assert validate_schedule(good, [wf], [Resource(0, 2, 0)]) == []

    bad = Schedule()
    bad.add(_assign(t_a, 0, 0, 0))
    bad.add(_assign(t_b, 0, 1, 2))  # starts before A ends
    problems = validate_schedule(bad, [wf], [Resource(0, 2, 0)])
    assert any("before predecessor ends" in p for p in problems)
