"""Shared test fixtures and model-building helpers."""

from __future__ import annotations

import pytest

from repro.cp import CpModel
from repro.workload.entities import Job, Resource, Task, TaskKind


def make_task(
    task_id: str,
    job_id: int = 0,
    kind: TaskKind = TaskKind.MAP,
    duration: int = 5,
) -> Task:
    return Task(id=task_id, job_id=job_id, kind=kind, duration=duration)


def make_job(
    job_id: int,
    map_durations=(5,),
    reduce_durations=(),
    arrival: int = 0,
    earliest_start: int = 0,
    deadline: int = 1000,
) -> Job:
    maps = [
        make_task(f"t{job_id}_m{i}", job_id, TaskKind.MAP, d)
        for i, d in enumerate(map_durations)
    ]
    reduces = [
        make_task(f"t{job_id}_r{i}", job_id, TaskKind.REDUCE, d)
        for i, d in enumerate(reduce_durations)
    ]
    return Job(
        id=job_id,
        arrival_time=arrival,
        earliest_start=earliest_start,
        deadline=deadline,
        map_tasks=maps,
        reduce_tasks=reduces,
    )


def run_until(sim, time: float) -> None:
    """Dispatch every event due at or before ``time``; the clock stays at
    the last one dispatched."""
    while (due := sim.peek()) is not None and due <= time:
        sim.step()


def two_job_single_machine_model(horizon: int = 100) -> CpModel:
    """Two unit-capacity jobs competing for one slot; one must be late."""
    m = CpModel(horizon=horizon)
    a = m.interval_var(length=10, name="a")
    b = m.interval_var(length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    la = m.add_deadline_indicator([a], deadline=10, name="late_a")
    lb = m.add_deadline_indicator([b], deadline=10, name="late_b")
    m.add_group("ja", [a], deadline=10)
    m.add_group("jb", [b], deadline=10)
    m.minimize_sum([la, lb])
    return m


@pytest.fixture
def small_resources():
    return [Resource(0, 2, 2), Resource(1, 2, 2)]
