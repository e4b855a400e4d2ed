"""Job / Task / Resource entities and TE computation."""

import pytest

from repro.workload.entities import (
    Resource,
    TaskKind,
    cluster_capacities,
    make_uniform_cluster,
    minimum_execution_time,
)

from tests.conftest import make_job, make_task


def test_job_derived_properties():
    job = make_job(1, map_durations=(5, 7), reduce_durations=(3,), deadline=100)
    assert len(job.map_tasks) == 2
    assert len(job.reduce_tasks) == 1
    assert [s.name for s in job.stages] == ["map", "reduce"]
    assert job.edges == [("map", "reduce")]
    assert job.total_work == 15
    assert len(job.tasks) == 3


def test_laxity():
    job = make_job(1, map_durations=(5,), reduce_durations=(5,),
                   earliest_start=10, deadline=40)
    assert job.laxity() == 40 - 10 - 10


def test_completion_and_reset():
    job = make_job(1, map_durations=(5,), reduce_durations=(3,))
    assert not job.is_completed
    for t in job.tasks:
        t.is_completed = True
    assert job.is_completed
    assert job.pending_tasks == []
    fresh = job.copy()
    assert not fresh.is_completed
    assert len(fresh.pending_tasks) == 2


def test_copy_resets_runtime_state():
    job = make_job(1, map_durations=(5,))
    job.map_tasks[0].is_completed = True
    clone = job.copy()
    assert clone.id == job.id
    assert not clone.map_tasks[0].is_completed
    assert clone.map_tasks[0] is not job.map_tasks[0]


def test_resource_validation():
    with pytest.raises(ValueError):
        Resource(0, -1, 2)


def test_make_uniform_cluster():
    cluster = make_uniform_cluster(3, 2, 4)
    assert len(cluster) == 3
    assert cluster_capacities(cluster) == (6, 12)
    with pytest.raises(ValueError):
        make_uniform_cluster(0)


def test_te_fully_parallel():
    # fewer tasks than slots: TE = max map + max reduce
    job = make_job(1, map_durations=(5, 9, 3), reduce_durations=(4, 6))
    assert minimum_execution_time(job, 10, 10) == 9 + 6


def test_te_limited_slots_uses_lpt_makespan():
    # maps 5,9,3 on 1 slot = 17; reduces 4,6 on 1 slot = 10
    job = make_job(1, map_durations=(5, 9, 3), reduce_durations=(4, 6))
    assert minimum_execution_time(job, 1, 1) == 27
    # 2 slots: LPT -> maps {9} {5,3} = 9 ; reduces {6} {4} = 6
    assert minimum_execution_time(job, 2, 2) == 15


def test_te_map_only():
    job = make_job(1, map_durations=(5, 5))
    assert minimum_execution_time(job, 2, 0) == 5


def test_te_with_tasks_but_no_slots_rejected():
    job = make_job(1, map_durations=(5,))
    with pytest.raises(ValueError):
        minimum_execution_time(job, 0, 1)


def test_task_kind_helpers():
    t = make_task("x", kind=TaskKind.MAP)
    assert t.is_map and not t.is_reduce
