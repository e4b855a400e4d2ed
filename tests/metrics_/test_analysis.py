"""Post-run analysis helpers."""

import pytest

from repro.core.schedule import TaskAssignment
from repro.metrics import MetricsCollector
from repro.metrics.analysis import (
    offered_load,
    percentile,
    slot_utilization,
    tardiness_stats,
)
from repro.workload.entities import Resource

from tests.conftest import make_job


def test_slot_utilization():
    job = make_job(0, (10, 5), (4,), deadline=100)
    assignments = [
        TaskAssignment(job.map_tasks[0], 0, 0, 0),
        TaskAssignment(job.map_tasks[1], 0, 1, 0),
        TaskAssignment(job.reduce_tasks[0], 0, 0, 10),
    ]
    report = slot_utilization(assignments, [Resource(0, 2, 1)])
    assert report.span == 14
    assert report.map_busy_seconds == 15
    assert report.reduce_busy_seconds == 4
    assert report.map_utilization == pytest.approx(15 / 28)
    assert report.reduce_utilization == pytest.approx(4 / 14)


def test_slot_utilization_explicit_span():
    job = make_job(0, (10,))
    report = slot_utilization(
        [TaskAssignment(job.map_tasks[0], 0, 0, 0)],
        [Resource(0, 1, 0)],
        span=100,
    )
    assert report.map_utilization == pytest.approx(0.1)


def test_utilization_empty():
    report = slot_utilization([], [Resource(0, 1, 1)])
    assert report.map_utilization == report.reduce_utilization == 0.0


def test_offered_load():
    jobs = [
        make_job(0, (10, 10), arrival=0, earliest_start=0, deadline=100),
        make_job(1, (10, 10), arrival=100, earliest_start=100, deadline=300),
    ]
    rho = offered_load(jobs, [Resource(0, 1, 1)])
    # 40 work units over 100 s of arrivals, 2 slots -> 0.2
    assert rho == pytest.approx(0.2)
    assert offered_load([], [Resource(0, 1, 1)]) == 0.0
    assert offered_load([jobs[0]], [Resource(0, 1, 1)]) == float("inf")


def test_tardiness_stats():
    collector = MetricsCollector()
    on_time = make_job(0, (5,), deadline=50)
    late1 = make_job(1, (5,), deadline=20)
    late2 = make_job(2, (5,), deadline=20)
    for j in (on_time, late1, late2):
        collector.job_arrived(j)
    collector.job_completed(on_time, 30)
    collector.job_completed(late1, 25)  # tardiness 5
    collector.job_completed(late2, 40)  # tardiness 20
    stats = tardiness_stats(
        collector.finalize(), [on_time, late1, late2]
    )
    assert stats.late_jobs == 2
    assert stats.tardiness_by_job == {1: 5, 2: 20}
    assert stats.mean_tardiness == 12.5
    assert stats.max_tardiness == 20
    assert stats.total_tardiness == 25


def test_tardiness_no_late_jobs():
    collector = MetricsCollector()
    j = make_job(0, (5,), deadline=50)
    collector.job_arrived(j)
    collector.job_completed(j, 10)
    stats = tardiness_stats(collector.finalize(), [j])
    assert stats.late_jobs == 0
    assert stats.mean_tardiness == 0.0


def test_percentile_nearest_rank():
    data = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert percentile(data, 50) == 5
    assert percentile(data, 90) == 9
    assert percentile(data, 100) == 10
    assert percentile(data, 0) == 1
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(data, 101)
