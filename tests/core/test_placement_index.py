"""Best-gap placement by index equals the scan it replaced.

:meth:`FrozenBase.place` picks a slot with one bisect when no booking lies
ahead of the task; :func:`scan_place` below is the scan that defined the
rule, kept here as the oracle.  Two bases replay the same random book --
frozen work in the past and the future, placements that may fail part-way,
releases and retirements -- one through each, and must agree on every
result, every error message and every piece of state, index included.
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
    return {pool: gaps[:] for pool, gaps in base._gaps.items()}, dict(base._top)


def rebuilt_index(base):
    """The index a fresh base holding the same live work would have."""
    caps = {}
    for rid, _kind in base.slots:  # per resource: map, then reduce
        caps.setdefault(rid, []).append(len(base.slots[rid, _kind]))
    fresh = FrozenBase([Resource(r, *c) for r, c in caps.items()], base.per_resource)
    fresh.add(base.live.values())
    return index_state(fresh)


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
    """A booking ahead of the task sends it down the scan; a task after
    every booking takes the index, which must match the scan's pick."""
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
