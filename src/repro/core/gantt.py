"""ASCII Gantt rendering of schedules.

Turns a :class:`~repro.core.schedule.Schedule` into a per-slot timeline --
handy for eyeballing what the CP solver decided, in examples, logs and bug
reports.  One row per (resource, slot kind, slot index); occupied cells show
a per-task glyph, a legend maps glyphs back to task ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, SlotKind
from repro.workload.entities import Resource

#: Glyph cycle for tasks (digits/letters, restarted when exhausted).
_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_gantt(
    schedule: Schedule,
    resources: Sequence[Resource],
    width: int = 72,
    time_range: Optional[Tuple[int, int]] = None,
    legend: bool = True,
) -> str:
    """Render the schedule as fixed-width ASCII rows.

    ``width`` is the number of timeline characters; the time range (defaults
    to [min start, max end]) is divided evenly across it, so one character
    covers ``(t1 - t0) / width`` time units.  Overlaps within a slot render
    as ``#`` -- seeing one means the schedule is invalid.
    """
    assignments = list(schedule)
    if not assignments:
        return "(empty schedule)"
    if width < 8:
        raise ValueError("width must be at least 8 characters")

    if time_range is None:
        t0 = min(a.start for a in assignments)
        t1 = max(a.end for a in assignments)
    else:
        t0, t1 = time_range
    span = max(1, t1 - t0)

    # glyph per task, in first-start order for stable output
    glyph_of: Dict[str, str] = {}
    for a in sorted(assignments, key=lambda a: (a.start, a.task.id)):
        if a.task.id not in glyph_of:
            glyph_of[a.task.id] = _GLYPHS[len(glyph_of) % len(_GLYPHS)]

    def cell_range(start: int, end: int) -> Tuple[int, int]:
        lo = int((start - t0) * width / span)
        hi = int((end - t0) * width / span)
        lo = max(0, min(width - 1, lo))
        hi = max(lo + 1, min(width, hi))
        return lo, hi

    rows: List[str] = [f"time [{t0}, {t1}]  ({span / width:.2f} s/char)"]
    by_slot = {}
    for a in assignments:
        by_slot.setdefault(a.slot_key(), []).append(a)

    for res in resources:
        for kind, cap in (
            (SlotKind.MAP, res.map_capacity),
            (SlotKind.REDUCE, res.reduce_capacity),
        ):
            for slot in range(cap):
                label = f"r{res.id}.{kind.value[:3]}{slot}"
                cells = [" "] * width
                prev_end = None
                for a in sorted(
                    by_slot.get((res.id, kind, slot), []), key=lambda a: a.start
                ):
                    lo, hi = cell_range(a.start, a.end)
                    g = glyph_of[a.task.id]
                    # a genuine time overlap renders as '#'; two tasks merely
                    # sharing a character cell at coarse resolution do not
                    overlapping = prev_end is not None and a.start < prev_end
                    for i in range(lo, hi):
                        if cells[i] == " ":
                            cells[i] = g
                        elif overlapping:
                            cells[i] = "#"
                    prev_end = a.end if prev_end is None else max(prev_end, a.end)
                rows.append(f"{label:>10} |{''.join(cells)}|")

    if legend:
        rows.append("legend: " + "  ".join(
            f"{g}={tid}" for tid, g in glyph_of.items()
        ))
    return "\n".join(rows)
