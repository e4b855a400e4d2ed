"""The standing frozen base: booking, release, retirement and rollback."""

import pytest

from repro.core.matchmaking import FrozenBase, decompose_combined_schedule
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.cp.profile import TimetableProfile
from repro.workload.entities import Resource, TaskKind

from tests.conftest import make_job, make_task


def snapshot(base):
    """Everything a placement may touch: profiles, every busy list, live set."""
    profiles = {
        pool: (p._times[:], p._deltas[:])
        for pool, p in base.profiles.items()
        if p._times
    }
    busy = {key: [s.busy[:] for s in pool] for key, pool in base.slots.items()}
    return profiles, busy, dict(base.live), base.ends[:]


def future_bookings():
    """Two map slots; slot 1 is booked from t=8, in the *future* of the
    movable work -- the precondition the best-gap argument needs fails."""
    resources = [Resource(0, 2, 0)]
    g, f = make_task("g", 9, duration=3), make_task("f", 9, duration=12)
    frozen = [TaskAssignment(g, 0, 0, start=0), TaskAssignment(f, 0, 1, start=8)]
    a, b = make_task("a", duration=3), make_task("b", duration=6)
    return resources, frozen, [(a, 3), (b, 4)]


def test_capacity_feasible_future_bookings_are_rejected():
    """Pinned as today's behaviour: the combined starts below respect the
    two-slot capacity at every instant, yet best-gap puts ``a`` on slot 0
    (gap 0 < 3) and ``b`` then fits neither slot.  Putting ``a`` on slot 1
    would have worked: placement is greedy, not a packing search."""
    resources, frozen, movable = future_bookings()
    load = TimetableProfile()
    for a in frozen:
        load.add(a.start, a.end, 1)
    for task, start in movable:
        load.add(start, start + task.duration, 1)
    assert load.max_height() <= 2
    with pytest.raises(SchedulingError, match="no free map slot for task b"):
        decompose_combined_schedule(movable, frozen, resources)


def test_failed_placement_leaves_the_base_unchanged():
    resources, frozen, movable = future_bookings()
    base = FrozenBase(resources)
    base.add(frozen)
    before = snapshot(base)
    with pytest.raises(SchedulingError, match="combined capacity"):
        base.place((t, s, None) for t, s in movable)
    assert snapshot(base) == before


def test_unknown_resource_part_way_rolls_back():
    base = FrozenBase([Resource(0, 1, 1), Resource(1, 1, 1)], per_resource=True)
    before = snapshot(base)
    ok, bad = make_task("ok"), make_task("bad")
    with pytest.raises(SchedulingError, match="unknown resource 7"):
        base.place([(ok, 0, 1), (bad, 5, 7)])
    assert snapshot(base) == before


def test_placed_work_stays_booked_and_releases_cleanly():
    job = make_job(0, (5, 5), (4,))
    base = FrozenBase([Resource(0, 2, 1)])
    before = snapshot(base)
    placed = base.place([(t, s, None) for t, s in zip(job.tasks, (0, 2, 7))])
    assert set(base.live) == {a.task.id for a in placed}
    assert base.end() == 11 and base.ends == [5, 7, 11]
    assert base.profiles[TaskKind.MAP].height_at(3) == 2
    base.remove(placed)
    assert snapshot(base) == before
    assert base.end() == 0


def test_retire_releases_exactly_the_ended_work():
    job = make_job(0, (5, 9), (4,))
    base = FrozenBase([Resource(0, 2, 1)])
    m0, m1 = job.map_tasks
    base.add(
        [
            TaskAssignment(m0, 0, 0, start=0),
            TaskAssignment(m1, 0, 1, start=0),
            TaskAssignment(job.reduce_tasks[0], 0, 0, start=9),
        ]
    )
    base.retire(4)
    assert set(base.live) == {m0.id, m1.id, job.reduce_tasks[0].id}
    base.retire(5)  # ended *at* now: gone
    assert m0.id not in base.live
    assert base.slots[0, TaskKind.MAP][0].busy == []
    base.retire(100)
    assert base.live == {} and base.ends == [] and base.end() == 0


def test_profiles_built_late_match_profiles_kept_current():
    job = make_job(0, (5, 3, 4), (6,))
    first = [
        TaskAssignment(job.map_tasks[0], 1, 0, start=0),
        TaskAssignment(job.map_tasks[1], 0, 0, start=2),
    ]
    later = [
        TaskAssignment(job.map_tasks[2], 1, 1, start=1),
        TaskAssignment(job.reduce_tasks[0], 0, 0, start=6),
    ]
    resources = [Resource(0, 1, 1), Resource(1, 2, 1)]
    for per_resource in (False, True):
        eager = FrozenBase(resources, per_resource)
        eager.profiles  # built now, kept current from here on
        eager.add(first + later)
        eager.remove(first[:1])
        lazy = FrozenBase(resources, per_resource)
        lazy.add(first + later)
        lazy.remove(first[:1])
        keys = set(eager.profiles) | set(lazy.profiles)
        for pool in keys:
            e, z = eager.profiles[pool], lazy.profiles[pool]
            assert (e._times, e._deltas) == (z._times, z._deltas)
        assert (TaskKind.MAP in keys) is not per_resource


def test_booking_a_missing_slot_is_refused():
    base = FrozenBase([Resource(0, 1, 0)])
    task = make_task("x")
    with pytest.raises(SchedulingError, match="does not exist"):
        base.add([TaskAssignment(task, 0, 1, start=0)])
    with pytest.raises(SchedulingError, match="overlaps"):
        base.add(
            [
                TaskAssignment(task, 0, 0, start=0),
                TaskAssignment(make_task("y"), 0, 0, start=3),
            ]
        )


def test_a_negative_slot_index_does_not_exist():
    """Python's negative indexing would book it on the last slot, where
    ``validate_schedule`` rejects it (``0 <= slot_index < cap``)."""
    base = FrozenBase([Resource(0, 2, 1)])
    before = snapshot(base)
    with pytest.raises(SchedulingError, match="r0/-1 does not exist"):
        base.add([TaskAssignment(make_task("x"), 0, -1, start=3)])
    assert snapshot(base) == before
