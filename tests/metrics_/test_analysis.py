"""Post-run analysis helpers."""

import pytest

from repro.core.schedule import TaskAssignment
from repro.metrics.analysis import offered_load, slot_utilization
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
