"""Workload validation catches each malformation."""

from repro.workload.entities import Job, Task, TaskKind
from repro.workload.validate import validate_jobs

from tests.conftest import make_job, make_task


def test_valid_workload_passes():
    jobs = [make_job(0, (5,), (3,)), make_job(1, (2,), arrival=10, earliest_start=10, deadline=50)]
    assert validate_jobs(jobs) == []


def test_duplicate_job_ids():
    jobs = [make_job(0), make_job(0)]
    problems = validate_jobs(jobs)
    assert any("duplicate job id" in p for p in problems)


def test_duplicate_task_ids():
    a = make_job(0)
    b = make_job(1)
    b.map_tasks[0].id = a.map_tasks[0].id
    assert any("duplicate task id" in p for p in validate_jobs([a, b]))


def test_earliest_start_before_arrival():
    j = make_job(0, arrival=10, earliest_start=5)
    assert any("before" in p for p in validate_jobs([j]))


def test_deadline_not_after_start():
    j = make_job(0, earliest_start=10, deadline=10)
    assert any("deadline" in p for p in validate_jobs([j]))


def test_empty_job():
    j = Job(id=0, arrival_time=0, earliest_start=0, deadline=10)
    assert any("no tasks" in p for p in validate_jobs([j]))


def test_reduces_without_maps():
    j = Job(
        id=0,
        arrival_time=0,
        earliest_start=0,
        deadline=10,
        reduce_tasks=[make_task("r0", 0, TaskKind.REDUCE, 3)],
    )
    assert any("stage map has no tasks" in p for p in validate_jobs([j]))


def test_wrong_parent_id():
    j = make_job(0)
    j.map_tasks[0].job_id = 99
    assert any("job_id" in p for p in validate_jobs([j]))


def test_nonpositive_duration_and_demand():
    j = make_job(0)
    j.map_tasks[0].duration = 0
    j.map_tasks[0].demand = 0
    problems = validate_jobs([j])
    assert any("duration" in p for p in problems)
    assert any("demand" in p for p in problems)


def test_kind_list_mismatch():
    j = make_job(0)
    j.map_tasks[0].kind = TaskKind.REDUCE
    assert any("kind" in p for p in validate_jobs([j]))


def test_unsorted_arrivals():
    jobs = [make_job(0, arrival=10, earliest_start=10, deadline=100),
            make_job(1, arrival=5, earliest_start=5, deadline=100)]
    assert any("sorted" in p for p in validate_jobs(jobs))
