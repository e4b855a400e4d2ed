"""Table 1 model construction from system state."""

import pytest

from repro.core.formulation import FormulationMode, build_model
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.workload.entities import Resource

from tests.conftest import make_job


def _resources():
    return [Resource(0, 2, 1), Resource(1, 2, 1)]


def test_combined_model_structure():
    jobs = [make_job(0, (5, 5), (3,), deadline=60),
            make_job(1, (4,), deadline=40)]
    result = build_model(jobs, _resources(), now=0)
    m = result.model
    assert result.mode is FormulationMode.COMBINED
    # 3 maps + 1 reduce = 4 intervals, no options
    assert len(m.intervals) == 4
    assert len(m.optionals) == 0
    # two cumulative constraints: combined map (cap 4), combined reduce (cap 2)
    caps = {c.name: c.capacity for c in m.cumulatives}
    assert caps == {"combined-map": 4, "combined-reduce": 2}
    # one barrier (job 1 is map-only), two indicators, two groups
    assert len(m.barriers) == 1
    assert len(m.indicators) == 2
    assert len(m.groups) == 2
    assert m.objective_bools is not None and len(m.objective_bools) == 2


def test_map_only_job_indicator_uses_maps():
    jobs = [make_job(0, (5,), deadline=40)]
    result = build_model(jobs, _resources(), now=0)
    spec = result.model.indicators[0]
    assert spec.tasks == [result.interval_of[jobs[0].map_tasks[0].id]]


def test_completed_tasks_omitted():
    job = make_job(0, (5, 5), (3,), deadline=60)
    job.map_tasks[0].is_completed = True
    result = build_model([job], _resources(), now=10)
    assert job.map_tasks[0].id not in result.interval_of
    assert job.map_tasks[1].id in result.interval_of


def test_est_clamped_to_now():
    job = make_job(0, (5,), earliest_start=3, deadline=60)
    result = build_model([job], _resources(), now=10)
    iv = result.interval_of[job.map_tasks[0].id]
    assert iv.est == 10


def test_future_est_respected():
    job = make_job(0, (5,), arrival=0, earliest_start=30, deadline=90)
    result = build_model([job], _resources(), now=10)
    iv = result.interval_of[job.map_tasks[0].id]
    assert iv.est == 30


def test_running_tasks_frozen():
    job = make_job(0, (5, 5), deadline=60)
    running = [TaskAssignment(job.map_tasks[0], 0, 0, start=2)]
    result = build_model([job], _resources(), now=4, running=running)
    iv = result.interval_of[job.map_tasks[0].id]
    assert iv.est == iv.lst == 2  # frozen, even though start < now
    assert result.frozen == {job.map_tasks[0].id: running[0]}


def test_orphan_frozen_tasks_consume_capacity_combined():
    """A running task of a job NOT being re-planned still blocks slots."""
    other = make_job(9, (8,), deadline=100)
    running = [TaskAssignment(other.map_tasks[0], 0, 0, start=0)]
    new_job = make_job(0, (5,), deadline=50)
    result = build_model([new_job], _resources(), now=1, running=running)
    # the orphan's load is in the combined-map cumulative's base ...
    cum = next(c for c in result.model.cumulatives if c.name == "combined-map")
    assert cum.base is not None
    assert [cum.base.height_at(t) for t in (-1, 0, 7, 8)] == [0, 1, 1, 0]
    # ... and no interval of it is left in the model
    orphan = other.map_tasks[0]
    assert orphan.id not in result.interval_of
    assert all(iv.payload is not orphan for iv in result.model.all_intervals)
    assert cum.intervals == [result.interval_of[new_job.map_tasks[0].id]]
    assert result.frozen == {orphan.id: running[0]}
    assert result.horizon > 8  # the base's end is under the horizon


def test_joint_model_structure():
    jobs = [make_job(0, (5,), (3,), deadline=60)]
    result = build_model(jobs, _resources(), now=0, mode=FormulationMode.JOINT)
    m = result.model
    # each task gets one option per eligible resource
    assert len(m.alternatives) == 2
    assert len(m.optionals) == 4  # 2 tasks x 2 resources
    # per-resource cumulatives: 2 map pools + 2 reduce pools
    assert len(m.cumulatives) == 4
    # every option maps back to a resource id
    assert set(result.resource_of_option.values()) == {0, 1}


def test_joint_frozen_task_single_option():
    job = make_job(0, (5, 5), deadline=60)
    running = [TaskAssignment(job.map_tasks[0], 1, 0, start=0)]
    result = build_model(
        [job], _resources(), now=2, running=running, mode=FormulationMode.JOINT
    )
    alt = next(
        a
        for a in result.model.alternatives
        if a.master is result.interval_of[job.map_tasks[0].id]
    )
    assert len(alt.options) == 1
    assert result.resource_of_option[alt.options[0]] == 1


def test_joint_skips_resources_without_slots():
    job = make_job(0, (5,), (3,), deadline=60)
    resources = [Resource(0, 2, 0), Resource(1, 0, 1)]
    result = build_model([job], resources, now=0, mode=FormulationMode.JOINT)
    red_alt = next(
        a
        for a in result.model.alternatives
        if a.master is result.interval_of[job.reduce_tasks[0].id]
    )
    assert [result.resource_of_option[o] for o in red_alt.options] == [1]


def test_no_resources_rejected():
    with pytest.raises(SchedulingError):
        build_model([make_job(0)], [], now=0)


def test_map_tasks_with_no_map_slots_rejected():
    jobs = [make_job(0, (5,), deadline=60)]
    with pytest.raises(SchedulingError):
        build_model(jobs, [Resource(0, 0, 2)], now=0)


def test_horizon_accommodates_everything():
    jobs = [make_job(0, (50, 50), (100,), earliest_start=1000, deadline=5000)]
    result = build_model(jobs, _resources(), now=0)
    assert result.horizon > 1000 + 200
    # every interval window fits under the horizon
    for iv in result.model.intervals:
        assert iv.lct <= result.horizon
