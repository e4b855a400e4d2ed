"""Workload trace persistence (JSON round-trip).

Generated workloads can be saved and reloaded so that an experiment is
re-runnable bit-for-bit, and so that schedulers under comparison consume the
*identical* job stream (as the paper does when comparing MRCP-RM with
MinEDF-WC on the same Facebook workload).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.ioutil import atomic_write_text
from repro.workload.entities import Job, Task, TaskKind

TRACE_FORMAT_VERSION = 1


def _task_to_dict(task: Task) -> dict:
    return {
        "id": task.id,
        "job_id": task.job_id,
        "kind": task.kind.value,
        "duration": task.duration,
        "demand": task.demand,
    }


def _task_from_dict(data: dict) -> Task:
    return Task(
        id=data["id"],
        job_id=data["job_id"],
        kind=TaskKind(data["kind"]),
        duration=int(data["duration"]),
        demand=int(data.get("demand", 1)),
    )


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


def jobs_from_json(text: str) -> List[Job]:
    """Parse a job stream written by :func:`jobs_to_json`."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace version {version!r}")
    jobs = []
    for j in payload["jobs"]:
        jobs.append(
            Job(
                id=int(j["id"]),
                arrival_time=int(j["arrival_time"]),
                earliest_start=int(j["earliest_start"]),
                deadline=int(j["deadline"]),
                map_tasks=[_task_from_dict(t) for t in j["map_tasks"]],
                reduce_tasks=[_task_from_dict(t) for t in j["reduce_tasks"]],
            )
        )
    return jobs


def save_trace(jobs: List[Job], path: Union[str, Path]) -> None:
    """Write a job stream to ``path`` as JSON (atomically)."""
    atomic_write_text(str(path), jobs_to_json(jobs))


def load_trace(path: Union[str, Path]) -> List[Job]:
    """Read a job stream previously saved with :func:`save_trace`."""
    return jobs_from_json(Path(path).read_text())


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


def workflows_from_json(text: str):
    """Parse a workflow stream written by :func:`workflows_to_json`."""
    from repro.workload.workflows import Stage, WorkflowJob

    payload = json.loads(text)
    if payload.get("version") != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace version {payload.get('version')!r}")
    if payload.get("kind") != "workflow":
        raise ValueError("not a workflow trace (missing kind=workflow)")
    out = []
    for w in payload["workflows"]:
        out.append(
            WorkflowJob(
                id=int(w["id"]),
                arrival_time=int(w["arrival_time"]),
                earliest_start=int(w["earliest_start"]),
                deadline=int(w["deadline"]),
                stages=[
                    Stage(
                        name=s["name"],
                        tasks=[_task_from_dict(t) for t in s["tasks"]],
                    )
                    for s in w["stages"]
                ],
                edges=[tuple(e) for e in w["edges"]],
                edge_delays={
                    (a, b): int(d) for a, b, d in w.get("edge_delays", [])
                },
            )
        )
    return out


def save_workflow_trace(jobs, path: Union[str, Path]) -> None:
    """Write a workflow stream to ``path`` as JSON (atomically)."""
    atomic_write_text(str(path), workflows_to_json(jobs))


def load_workflow_trace(path: Union[str, Path]):
    """Read a workflow stream saved with :func:`save_workflow_trace`."""
    return workflows_from_json(Path(path).read_text())
