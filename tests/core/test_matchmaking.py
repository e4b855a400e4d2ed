"""Section V.D matchmaking decomposition."""

import pytest

from repro.core.matchmaking import (
    UnitSlot,
    assign_slots_within_resources,
    decompose_combined_schedule,
)
from repro.core.schedule import (
    Schedule,
    SchedulingError,
    SlotKind,
    TaskAssignment,
    validate_schedule,
)
from repro.workload.entities import Resource

from tests.conftest import make_job


def test_unit_slot_bookkeeping():
    slot = UnitSlot(0, 0)
    assert slot.occupy(2, 10) == 0  # its index in ``busy``
    with pytest.raises(SchedulingError, match="overlaps"):
        slot.occupy(9, 11)
    with pytest.raises(SchedulingError, match="overlaps"):
        slot.occupy(0, 3)
    assert slot.busy == [(2, 10)]
    assert slot.occupy(12, 12) == 1 and slot.occupy(0, 2) == 0
    assert slot.busy == [(0, 2), (2, 10), (12, 12)]


def test_paper_best_gap_example():
    """The paper's r1/r2 example: r1 busy to 10, r2 busy to 8; a task at 11
    goes to r1 (gap 1 < gap 3)."""
    job = make_job(0, (4,))
    task = job.map_tasks[0]
    r1_busy = make_job(90, (8,)).map_tasks[0]  # 2..10
    r2_busy = make_job(91, (3,)).map_tasks[0]  # 5..8
    frozen = [
        TaskAssignment(r1_busy, resource_id=1, slot_index=0, start=2),
        TaskAssignment(r2_busy, resource_id=2, slot_index=0, start=5),
    ]
    resources = [Resource(1, 1, 0), Resource(2, 1, 0)]
    out = decompose_combined_schedule([(task, 11)], frozen, resources)
    placed = next(a for a in out if a.task is task)
    assert placed.resource_id == 1


def test_decompose_respects_combined_capacity():
    job = make_job(0, (5, 5, 5, 5), (3, 3), deadline=1000)
    resources = [Resource(0, 2, 1), Resource(1, 2, 1)]
    movable = [(t, 0) for t in job.map_tasks] + [(t, 10) for t in job.reduce_tasks]
    out = decompose_combined_schedule(movable, [], resources)
    schedule = Schedule()
    for a in out:
        schedule.add(a)
    assert validate_schedule(schedule, [job], resources) == []
    # four simultaneous maps exactly fill 2+2 slots
    assert len({a.slot_key() for a in out if a.slot_kind is SlotKind.MAP}) == 4


def test_decompose_overload_raises():
    job = make_job(0, (5, 5, 5))
    resources = [Resource(0, 2, 0)]  # only two map slots
    movable = [(t, 0) for t in job.map_tasks]
    with pytest.raises(SchedulingError, match="combined"):
        decompose_combined_schedule(movable, [], resources)


def test_frozen_pass_through_and_conflict_avoidance():
    job = make_job(0, (6, 4))
    running = TaskAssignment(job.map_tasks[0], 0, 0, start=0)  # [0, 6) on r0/0
    resources = [Resource(0, 1, 0), Resource(1, 1, 0)]
    out = decompose_combined_schedule([(job.map_tasks[1], 2)], [running], resources)
    assert running in out
    placed = next(a for a in out if a.task is job.map_tasks[1])
    assert placed.resource_id == 1  # r0's only slot is busy until 6


def test_frozen_on_missing_slot_rejected():
    job = make_job(0, (6,))
    running = TaskAssignment(job.map_tasks[0], 0, 3, start=0)  # slot 3 absent
    with pytest.raises(SchedulingError):
        decompose_combined_schedule([], [running], [Resource(0, 1, 0)])


def test_assign_slots_within_resources():
    job = make_job(0, (5, 5), (3,), deadline=1000)
    resources = [Resource(0, 2, 1)]
    movable = [
        (job.map_tasks[0], 0, 0),
        (job.map_tasks[1], 0, 0),
        (job.reduce_tasks[0], 10, 0),
    ]
    out = assign_slots_within_resources(movable, [], resources)
    slots = {a.task.id: a.slot_index for a in out}
    assert slots[job.map_tasks[0].id] != slots[job.map_tasks[1].id]


def test_assign_slots_reproduces_the_combined_choice():
    """Both entry points are one placement routine: bind every task to the
    resource the combined pass picked and the slots come out identical."""
    jobs = [
        make_job(0, (5, 3, 4), (2, 6), deadline=1000),
        make_job(1, (2, 7), (3,), deadline=1000),
    ]
    running = make_job(9, (8,), (4,))
    frozen = [
        TaskAssignment(running.map_tasks[0], resource_id=1, slot_index=1, start=0),
        TaskAssignment(running.reduce_tasks[0], resource_id=0, slot_index=0, start=1),
    ]
    resources = [Resource(0, 1, 1), Resource(1, 2, 1), Resource(2, 1, 2)]
    movable = []
    for k, job in enumerate(jobs):
        movable += [(t, 3 * i + k) for i, t in enumerate(job.map_tasks)]
        movable += [(t, 12 + 4 * i + k) for i, t in enumerate(job.reduce_tasks)]
    combined = decompose_combined_schedule(movable, frozen, resources)
    chosen = {a.task.id: a.resource_id for a in combined}
    bound = [(t, s, chosen[t.id]) for t, s in movable]
    assert assign_slots_within_resources(bound, frozen, resources) == combined
    assert len({a.resource_id for a in combined}) == 3  # not a one-box case


def test_assign_slots_per_resource_overload_raises():
    job = make_job(0, (5, 5))
    movable = [(job.map_tasks[0], 0, 0), (job.map_tasks[1], 0, 0)]
    with pytest.raises(SchedulingError, match="per-resource"):
        assign_slots_within_resources(movable, [], [Resource(0, 1, 0)])


def test_assign_slots_unknown_resource():
    job = make_job(0, (5,))
    with pytest.raises(SchedulingError):
        assign_slots_within_resources(
            [(job.map_tasks[0], 0, 9)], [], [Resource(0, 1, 0)]
        )
