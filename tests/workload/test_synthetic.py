"""Table 3 synthetic workload generator."""

import pytest

from repro.workload.entities import minimum_execution_time
from repro.workload.synthetic import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
)
from repro.workload.validate import validate_jobs


def _params(**kw):
    defaults = dict(
        num_jobs=30,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 10),
        e_max=10,
        ar_probability=0.5,
        s_max=100,
        deadline_multiplier_max=3.0,
        arrival_rate=0.05,
        total_map_slots=10,
        total_reduce_slots=10,
    )
    defaults.update(kw)
    return SyntheticWorkloadParams(**defaults)


def test_workload_is_well_formed():
    jobs = generate_synthetic_workload(_params(), seed=1)
    assert len(jobs) == 30
    assert validate_jobs(jobs) == []


def test_deterministic_given_seed():
    a = generate_synthetic_workload(_params(), seed=9)
    b = generate_synthetic_workload(_params(), seed=9)
    assert [j.deadline for j in a] == [j.deadline for j in b]
    assert [t.duration for j in a for t in j.tasks] == [
        t.duration for j in b for t in j.tasks
    ]


def test_seeds_differ():
    a = generate_synthetic_workload(_params(), seed=1)
    b = generate_synthetic_workload(_params(), seed=2)
    assert [j.deadline for j in a] != [j.deadline for j in b]


def test_task_count_ranges_respected():
    jobs = generate_synthetic_workload(_params(num_jobs=100), seed=3)
    for j in jobs:
        assert 1 <= len(j.map_tasks) <= 10
        assert 1 <= len(j.reduce_tasks) <= 10


def test_map_durations_respect_e_max():
    jobs = generate_synthetic_workload(_params(num_jobs=60, e_max=7), seed=4)
    for j in jobs:
        for t in j.map_tasks:
            assert 1 <= t.duration <= 7


def test_reduce_durations_follow_formula():
    jobs = generate_synthetic_workload(_params(num_jobs=40), seed=5)
    for j in jobs:
        base = round(3.0 * sum(t.duration for t in j.map_tasks) / len(j.reduce_tasks))
        for t in j.reduce_tasks:
            assert base + 1 <= t.duration <= base + 10


def test_ar_probability_zero_means_start_at_arrival():
    jobs = generate_synthetic_workload(_params(ar_probability=0.0), seed=6)
    assert all(j.earliest_start == j.arrival_time for j in jobs)


def test_ar_probability_one_means_future_starts():
    jobs = generate_synthetic_workload(
        _params(ar_probability=1.0, s_max=50), seed=7
    )
    assert all(
        j.arrival_time + 1 <= j.earliest_start <= j.arrival_time + 50
        for j in jobs
    )


def test_ar_probability_mixes():
    jobs = generate_synthetic_workload(
        _params(num_jobs=200, ar_probability=0.5), seed=8
    )
    ar = sum(1 for j in jobs if j.earliest_start > j.arrival_time)
    assert 60 <= ar <= 140  # roughly half


def test_deadline_bounds_from_te():
    params = _params(num_jobs=50, deadline_multiplier_max=4.0)
    jobs = generate_synthetic_workload(params, seed=9)
    for j in jobs:
        te = minimum_execution_time(j, 10, 10)
        slack = j.deadline - j.earliest_start
        assert te <= slack <= 4 * te + 1  # ceil adds at most 1


def test_arrival_rate_controls_interarrivals():
    fast = generate_synthetic_workload(
        _params(num_jobs=200, arrival_rate=1.0), seed=10
    )
    slow = generate_synthetic_workload(
        _params(num_jobs=200, arrival_rate=0.01), seed=10
    )
    assert fast[-1].arrival_time < slow[-1].arrival_time


def test_scale_shrinks_task_counts():
    params = _params(map_tasks_range=(1, 100), reduce_tasks_range=(1, 100))
    params.scale = 0.1
    jobs = generate_synthetic_workload(params, seed=11)
    for j in jobs:
        assert len(j.map_tasks) <= 10
        assert len(j.reduce_tasks) <= 10


def test_first_job_id_offset():
    params = _params(num_jobs=3)
    params.first_job_id = 100
    jobs = generate_synthetic_workload(params, seed=12)
    assert [j.id for j in jobs] == [100, 101, 102]


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_synthetic_workload(_params(num_jobs=0))
    with pytest.raises(ValueError):
        generate_synthetic_workload(_params(ar_probability=1.5))
    with pytest.raises(ValueError):
        generate_synthetic_workload(_params(e_max=0))
    with pytest.raises(ValueError):
        generate_synthetic_workload(_params(arrival_rate=0.0))
    with pytest.raises(ValueError):
        generate_synthetic_workload(_params(deadline_multiplier_max=0.5))


def test_shared_streams_are_factor_stable():
    """Changing e_max must not change arrival times (common random numbers)."""
    a = generate_synthetic_workload(_params(e_max=5), seed=13)
    b = generate_synthetic_workload(_params(e_max=50), seed=13)
    assert [j.arrival_time for j in a] == [j.arrival_time for j in b]
    assert [len(j.map_tasks) for j in a] == [len(j.map_tasks) for j in b]
