"""Best-gap placement by index equals the scan it replaced.

:meth:`FrozenBase.place` picks a slot by bisecting its pool's index of idle
gaps; :func:`scan_place` below is the scan that defined the rule, kept here
as the oracle.  Two bases replay the same random book -- frozen work in the
past and the future, placements that may fail part-way, releases and
retirements -- one through each, and must agree on every result, every
error message and every piece of state; the index must hold exactly the
idle gaps the busy lists show.
"""

from hypothesis import given, settings, strategies as st

from repro.core.matchmaking import FrozenBase, UnitSlot
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.workload.entities import Resource, Task, TaskKind

from tests.core.test_frozen_base import snapshot

KINDS = (TaskKind.MAP, TaskKind.REDUCE)


def scan_place(base, movable):
    """The scan: every candidate slot's gap, the first strictly smallest wins."""
    placed = []
    try:
        for task, start, resource_id in sorted(movable, key=lambda p: (p[1], p[0].id)):
            kind = task.kind
            end = start + task.duration
            if resource_id is None:
                candidates = [
                    slot
                    for (_rid, k), pool in base.slots.items()
                    if k is kind
                    for slot in pool
                ]
                scope = "combined"
            else:
                candidates = base.slots.get((resource_id, kind))
                if candidates is None:
                    raise SchedulingError(f"unknown resource {resource_id}")
                scope = f"per-resource (r{resource_id})"
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
            base.add([a])
            placed.append(a)
    except SchedulingError:
        base.remove(placed)
        raise
    return placed


def index_state(base):
    return {pool: gaps[:] for pool, gaps in base._gaps.items()}


def rebuilt_index(base):
    """Every non-empty idle gap of every slot, read off the busy lists."""
    gaps = {pool: [] for pool in base._gaps}
    for slots in base.slots.values():
        for slot in slots:
            ends = [0] + [end for _start, end in slot.busy]
            starts = [start for start, _end in slot.busy] + [float("inf")]
            for lo, hi in zip(ends, starts):
                if lo < hi:
                    gaps[slot.pool].append((lo, -slot.rank, hi))
    return {pool: sorted(pool_gaps) for pool, pool_gaps in gaps.items()}


def outcome(call):
    try:
        return [(a.task.id, a.resource_id, a.slot_index, a.start) for a in call()]
    except SchedulingError as exc:
        return str(exc)


@st.composite
def books(draw):
    """Resources, pool mode, and a script of operations on the base."""
    resources = [
        Resource(r, draw(st.integers(0, 3)), draw(st.integers(0, 2)))
        for r in range(draw(st.integers(1, 3)))
    ]
    per_resource = draw(st.booleans())
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(("frozen", "place", "place", "remove", "retire")))
        if op == "frozen":
            r = draw(st.sampled_from(resources))
            kind = draw(st.sampled_from(KINDS))
            cap = r.map_capacity if kind is TaskKind.MAP else r.reduce_capacity
            if cap:
                index = draw(st.integers(0, cap - 1))
                start = draw(st.integers(0, 40))  # in the past or the future
                ops.append((op, (r.id, kind, index, start, draw(st.integers(0, 12)))))
        elif op == "place":
            batch = []
            for _ in range(draw(st.integers(1, 6))):
                rid = draw(st.integers(0, len(resources)))  # len: unknown
                bound = per_resource or draw(st.booleans())
                kind, start = draw(st.sampled_from(KINDS)), draw(st.integers(0, 40))
                duration = draw(st.integers(0, 12))
                batch.append((kind, start, duration, rid if bound else None))
            ops.append((op, batch))
        elif op == "remove":
            ops.append((op, draw(st.integers(0, 2**16))))
        else:
            ops.append((op, draw(st.integers(0, 40))))
    return resources, per_resource, ops


@given(books())
@settings(max_examples=300, deadline=None)
def test_index_place_equals_the_scan(book):
    resources, per_resource, ops = book
    indexed = FrozenBase(resources, per_resource)
    scanned = FrozenBase(resources, per_resource)
    bases = (indexed, scanned)
    serial = 0
    for op, arg in ops:
        if op == "frozen":
            rid, kind, index, start, duration = arg
            serial += 1
            task = Task(f"f{serial:03d}", 900, kind, duration)
            a = TaskAssignment(task, rid, index, start)
            slot = indexed.slots[rid, kind][index]
            if slot.gap_if_free(a.start, a.end) is None:
                continue
            for base in bases:
                base.add([a])
        elif op == "place":
            movable = []
            for kind, start, duration, rid in arg:
                serial += 1
                movable.append((Task(f"t{serial:03d}", 1, kind, duration), start, rid))
            got = outcome(lambda: indexed.place(movable))
            assert got == outcome(lambda: scan_place(scanned, movable))
        elif op == "remove":
            live = list(indexed.live.values())
            mine = [a for i, a in enumerate(live) if arg >> (i % 16) & 1]
            for base in bases:
                base.remove(mine)
        else:
            for base in bases:
                base.retire(arg)
        assert snapshot(indexed) == snapshot(scanned)
        assert index_state(indexed) == rebuilt_index(indexed)


def test_the_index_path_skips_slots_booked_ahead_of_it():
    """A task before a booking fits only its slot's leading gap, a task after
    every booking a trailing one; the index's pick is the scan's for both."""
    base = FrozenBase([Resource(0, 2, 0), Resource(1, 1, 0)])
    g = Task("g", 9, TaskKind.MAP, 5)
    base.add([TaskAssignment(g, 1, 0, start=2)])  # ends at 7
    late, early = Task("late", 1, TaskKind.MAP, 3), Task("early", 1, TaskKind.MAP, 1)
    placed = base.place([(late, 7, None), (early, 0, None)])
    # early: slot r0/0 (gap 0, first of the ties); late: r1/0 (gap 0 after g).
    assert [(a.task.id, a.resource_id, a.slot_index) for a in placed] == [
        ("early", 0, 0),
        ("late", 1, 0),
    ]


def placed_like_the_scan(resources, frozen, movable, per_resource=False):
    """Place ``movable`` on two bases holding ``frozen``, by index and by
    scan; both must agree, and the index must equal a rebuilt one after."""
    indexed, scanned = (FrozenBase(resources, per_resource) for _ in range(2))
    for base in (indexed, scanned):
        base.add(frozen)
    got = outcome(lambda: indexed.place(movable))
    assert got == outcome(lambda: scan_place(scanned, movable))
    assert snapshot(indexed) == snapshot(scanned)
    assert index_state(indexed) == rebuilt_index(indexed)
    return got, indexed


def booked(resource_id, slot_index, start, duration, kind=TaskKind.MAP):
    task = Task(f"f{resource_id}{slot_index}{start}", 900, kind, duration)
    return TaskAssignment(task, resource_id, slot_index, start)


def test_a_task_fills_an_interior_gap_exactly():
    frozen = [booked(0, 0, 0, 2), booked(0, 0, 6, 4), booked(0, 1, 0, 1)]
    task = Task("t", 1, TaskKind.MAP, 4)
    got, base = placed_like_the_scan([Resource(0, 2, 0)], frozen, [(task, 2, None)])
    assert got == [("t", 0, 0, 2)]  # gap 0 between the bookings, not 1 on r0/1
    assert base.slots[0, TaskKind.MAP][0].busy == [(0, 2), (2, 6), (6, 10)]
    # No empty gap is kept: only r0/0's trailing one is left.
    assert [g for g in base._gaps[TaskKind.MAP] if g[1] == 0] == [(10, 0, float("inf"))]


def test_a_shorter_gap_with_a_larger_lo_is_walked_past():
    # r0/0 is idle over [4, 8), r0/1 over [2, 20): [5, 10) fits only the second.
    frozen = [booked(0, 0, 0, 4), booked(0, 0, 8, 12)]
    frozen += [booked(0, 1, 0, 2), booked(0, 1, 20, 10)]
    task = Task("t", 1, TaskKind.MAP, 5)
    got, _ = placed_like_the_scan([Resource(0, 2, 0)], frozen, [(task, 5, None)])
    assert got == [("t", 0, 1, 5)]


def test_equal_gaps_go_to_the_lowest_rank():
    resources = [Resource(0, 1, 0), Resource(1, 3, 0)]
    # Gap 3 on r1/0 and r1/2 (the latter between two bookings), 4 on r0/0.
    frozen = [booked(0, 0, 0, 1), booked(1, 0, 0, 2), booked(1, 1, 0, 30)]
    frozen += [booked(1, 2, 0, 2), booked(1, 2, 9, 5)]
    task = Task("t", 1, TaskKind.MAP, 2)
    got, _ = placed_like_the_scan(resources, frozen, [(task, 5, None)])
    assert got == [("t", 1, 0, 5)]
    joint, _ = placed_like_the_scan(resources, frozen, [(task, 5, 1)], True)
    assert joint == [("t", 1, 0, 5)]


def test_zero_length_work_at_a_gap_boundary():
    frozen = [booked(0, 0, 5, 3), booked(0, 1, 8, 0)]  # r0/1: a point at 8
    at = [(Task(f"z{s}", 1, TaskKind.MAP, d), s, None) for s, d in ((4, 0), (5, 0))]
    got, _ = placed_like_the_scan([Resource(0, 2, 0)], frozen, at)
    # z4 fits r0/0's leading gap, which ends at 5, and r0/1's: gap 4 on
    # both, the lowest rank wins; z5 may not sit on a booking's start, so
    # only r0/1 is free at 5.
    assert got == [("z4", 0, 0, 4), ("z5", 0, 1, 5)]
    after = [(Task("z8", 1, TaskKind.MAP, 0), 8, None)]
    after.append((Task("t8", 1, TaskKind.MAP, 2), 8, None))
    got, _ = placed_like_the_scan([Resource(0, 2, 0)], frozen, after)
    # Both slots are idle from 8 (gap 0): t8 takes r0/0; z8 may not sit on
    # t8's start, so it goes to r0/1, after the point booked there.
    assert got == [("t8", 0, 0, 8), ("z8", 0, 1, 8)]


def test_slots_know_their_pool_and_tie_order():
    resources = [Resource(0, 2, 1), Resource(1, 1, 1)]
    combined = FrozenBase(resources)
    assert [(s.pool, s.rank) for s in combined._flat[TaskKind.MAP]] == [
        (TaskKind.MAP, 0),
        (TaskKind.MAP, 1),
        (TaskKind.MAP, 2),
    ]
    joint = FrozenBase(resources, per_resource=True)
    assert [s.rank for s in joint.slots[0, TaskKind.MAP]] == [0, 1]
    assert joint.slots[1, TaskKind.REDUCE][0].pool == (1, TaskKind.REDUCE)
    assert UnitSlot(0, 0).pool is None
