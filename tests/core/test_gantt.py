"""ASCII Gantt rendering."""

import pytest

from repro.core.gantt import render_gantt
from repro.core.schedule import Schedule, TaskAssignment
from repro.workload.entities import Resource

from tests.conftest import make_job


def _schedule():
    job = make_job(0, (10, 5), (4,), deadline=100)
    s = Schedule()
    s.add(TaskAssignment(job.map_tasks[0], 0, 0, 0))
    s.add(TaskAssignment(job.map_tasks[1], 0, 1, 0))
    s.add(TaskAssignment(job.reduce_tasks[0], 0, 0, 10))
    return s, job


def test_empty_schedule():
    assert render_gantt(Schedule(), [Resource(0, 1, 1)]) == "(empty schedule)"


def test_rows_per_slot():
    s, _ = _schedule()
    out = render_gantt(s, [Resource(0, 2, 1)], width=28)
    lines = out.splitlines()
    # header + 3 slot rows + legend
    assert len(lines) == 5
    assert lines[1].strip().startswith("r0.map0")
    assert lines[2].strip().startswith("r0.map1")
    assert lines[3].strip().startswith("r0.red0")
    assert "legend:" in lines[4]


def test_glyphs_proportional_to_duration():
    s, job = _schedule()
    out = render_gantt(s, [Resource(0, 2, 1)], width=28, legend=False)
    # count glyphs inside the timeline cells (between the pipes) only --
    # the row label "r0.map0" contains digits too
    map0_cells = out.splitlines()[1].split("|")[1]
    # 10s map on a 14s span at 28 chars = 20 cells of glyph "0"
    assert map0_cells.count("0") == 20
    map1_cells = out.splitlines()[2].split("|")[1]
    assert map1_cells.count("1") == 10


def test_overlap_marked_with_hash():
    job = make_job(0, (10, 10))
    s = Schedule()
    s.add(TaskAssignment(job.map_tasks[0], 0, 0, 0))
    s.add(TaskAssignment(job.map_tasks[1], 0, 0, 5))  # same slot overlap
    out = render_gantt(s, [Resource(0, 1, 0)], width=20)
    assert "#" in out


def test_explicit_time_range():
    s, _ = _schedule()
    out = render_gantt(s, [Resource(0, 2, 1)], width=20, time_range=(0, 100))
    assert "[0, 100]" in out.splitlines()[0]


def test_width_validation():
    s, _ = _schedule()
    with pytest.raises(ValueError):
        render_gantt(s, [Resource(0, 2, 1)], width=4)
