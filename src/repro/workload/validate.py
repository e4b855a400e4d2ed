"""Workload sanity validation, for MapReduce jobs and DAG workflows alike.

Catches generator bugs (and malformed hand-written traces) before they turn
into confusing scheduler behaviour: the stage DAG's hygiene, SLA ordering
(arrival <= earliest start < deadline), positive durations and demands,
task/job id consistency, and unique ids.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workload.entities import StagedJob


def validate_jobs(jobs: Sequence[StagedJob]) -> List[str]:
    """Return a list of problems (empty = workload is well-formed)."""
    problems: List[str] = []
    seen_job_ids = set()
    seen_task_ids = set()

    for job in jobs:
        if job.id in seen_job_ids:
            problems.append(f"duplicate job id {job.id}")
        seen_job_ids.add(job.id)

        if job.earliest_start < job.arrival_time:
            problems.append(
                f"job {job.id}: earliest start {job.earliest_start} before "
                f"arrival {job.arrival_time}"
            )
        if job.deadline <= job.earliest_start:
            problems.append(
                f"job {job.id}: deadline {job.deadline} not after earliest "
                f"start {job.earliest_start}"
            )
        problems += job.structure_problems()

        for task in job.tasks:
            if task.id in seen_task_ids:
                problems.append(f"duplicate task id {task.id}")
            seen_task_ids.add(task.id)
            if task.job_id != job.id:
                problems.append(
                    f"task {task.id}: job_id {task.job_id} != parent {job.id}"
                )
            if task.duration < 1:
                problems.append(
                    f"task {task.id}: non-positive duration {task.duration}"
                )
            if task.demand < 1:
                problems.append(f"task {task.id}: non-positive demand {task.demand}")

    arrivals = [j.arrival_time for j in jobs]
    if arrivals != sorted(arrivals):
        problems.append("jobs are not sorted by arrival time")
    return problems
