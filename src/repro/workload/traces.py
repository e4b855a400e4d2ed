"""Workload trace export (JSON).

A generated job stream -- SLAs and tasks, no runtime state -- is written as
JSON so the exact jobs behind a run can be inspected, archived or handed to
another tool.  Seeded generation is what makes a run re-runnable: the same
seed regenerates the identical stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.ioutil import atomic_write_text
from repro.workload.entities import Job, Task

TRACE_FORMAT_VERSION = 1


def _task_to_dict(task: Task) -> dict:
    return {
        "id": task.id,
        "job_id": task.job_id,
        "kind": task.kind.value,
        "duration": task.duration,
        "demand": task.demand,
    }


def jobs_to_json(jobs: List[Job]) -> str:
    """Serialise a MapReduce job stream (SLAs + tasks, no runtime state)."""
    payload = {
        "version": TRACE_FORMAT_VERSION,
        "jobs": [
            {
                "id": job.id,
                "arrival_time": job.arrival_time,
                "earliest_start": job.earliest_start,
                "deadline": job.deadline,
                "map_tasks": [_task_to_dict(t) for t in job.map_tasks],
                "reduce_tasks": [_task_to_dict(t) for t in job.reduce_tasks],
            }
            for job in jobs
        ],
    }
    return json.dumps(payload, indent=1)


def save_trace(jobs: List[Job], path: Union[str, Path]) -> None:
    """Write a job stream to ``path`` as JSON (atomically)."""
    atomic_write_text(str(path), jobs_to_json(jobs))


# ----------------------------------------------------------- DAG workflows

def workflows_to_json(jobs) -> str:
    """Serialise :class:`~repro.workload.workflows.WorkflowJob` streams."""
    payload = {
        "version": TRACE_FORMAT_VERSION,
        "kind": "workflow",
        "workflows": [
            {
                "id": job.id,
                "arrival_time": job.arrival_time,
                "earliest_start": job.earliest_start,
                "deadline": job.deadline,
                "stages": [
                    {
                        "name": stage.name,
                        "tasks": [_task_to_dict(t) for t in stage.tasks],
                    }
                    for stage in job.stages
                ],
                "edges": [list(e) for e in job.edges],
                "edge_delays": [
                    [a, b, d] for (a, b), d in sorted(job.edge_delays.items())
                ],
            }
            for job in jobs
        ],
    }
    return json.dumps(payload, indent=1)


def save_workflow_trace(jobs, path: Union[str, Path]) -> None:
    """Write a workflow stream to ``path`` as JSON (atomically)."""
    atomic_write_text(str(path), workflows_to_json(jobs))
