"""Trace export: the written JSON carries the job stream."""

import json

import pytest

from repro.workload.synthetic import SyntheticWorkloadParams, generate_synthetic_workload
from repro.workload.traces import TRACE_FORMAT_VERSION, jobs_to_json, save_trace


def _jobs():
    params = SyntheticWorkloadParams(
        num_jobs=8,
        map_tasks_range=(1, 5),
        reduce_tasks_range=(0, 3),
        e_max=10,
        arrival_rate=0.1,
        total_map_slots=4,
        total_reduce_slots=4,
    )
    return generate_synthetic_workload(params, seed=3)


def test_json_round_trip_is_lossless():
    jobs = _jobs()
    written = json.loads(jobs_to_json(jobs))
    assert written["version"] == TRACE_FORMAT_VERSION
    assert len(written["jobs"]) == len(jobs)
    for job, row in zip(jobs, written["jobs"]):
        assert (job.id, job.arrival_time, job.earliest_start, job.deadline) == (
            row["id"],
            row["arrival_time"],
            row["earliest_start"],
            row["deadline"],
        )
        assert [(t.id, t.duration, t.kind.value) for t in job.tasks] == [
            (t["id"], t["duration"], t["kind"])
            for t in row["map_tasks"] + row["reduce_tasks"]
        ]


def test_file_round_trip(tmp_path):
    jobs = _jobs()
    path = tmp_path / "trace.json"
    save_trace(jobs, path)
    assert [j["id"] for j in json.loads(path.read_text())["jobs"]] == [
        j.id for j in jobs
    ]


def test_runtime_state_not_persisted():
    jobs = _jobs()
    jobs[0].map_tasks[0].is_completed = True
    task = json.loads(jobs_to_json(jobs))["jobs"][0]["map_tasks"][0]
    assert set(task) == {"id", "job_id", "kind", "duration", "demand"}


def test_workflow_trace_round_trip(tmp_path):
    from repro.workload.traces import save_workflow_trace, workflows_to_json
    from repro.workload.workflows import (
        WorkflowWorkloadParams,
        generate_workflow_workload,
    )

    wfs = generate_workflow_workload(
        WorkflowWorkloadParams(num_jobs=5, stages_range=(2, 4)), seed=7
    )
    written = json.loads(workflows_to_json(wfs))
    assert written["kind"] == "workflow"
    for wf, row in zip(wfs, written["workflows"], strict=True):
        assert tuple(tuple(e) for e in row["edges"]) == wf.edges
        assert [s["name"] for s in row["stages"]] == [s.name for s in wf.stages]
        assert [[t["id"] for t in s["tasks"]] for s in row["stages"]] == [
            [t.id for t in s.tasks] for s in wf.stages
        ]

    path = tmp_path / "wf.json"
    save_workflow_trace(wfs, path)
    assert path.read_text() == workflows_to_json(wfs)


def _workflows():
    from repro.workload.workflows import (
        WorkflowWorkloadParams,
        generate_workflow_workload,
    )

    return generate_workflow_workload(
        WorkflowWorkloadParams(num_jobs=3, stages_range=(2, 3)), seed=7
    )


@pytest.mark.parametrize("kind", ["jobs", "workflows"])
def test_saved_traces_are_written_atomically(tmp_path, monkeypatch, kind):
    """The file holds exactly the serialised text and no ``.tmp.`` sibling is
    left behind; a write that dies before its rename leaves the previous file
    whole instead of a torn one."""
    import repro.ioutil
    from repro.workload.traces import save_workflow_trace, workflows_to_json

    save, dump, stream = {
        "jobs": (save_trace, jobs_to_json, _jobs()),
        "workflows": (save_workflow_trace, workflows_to_json, _workflows()),
    }[kind]
    path = tmp_path / "trace.json"
    save(stream, path)
    assert path.read_bytes() == dump(stream).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(repro.ioutil.os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        save(stream[:1], path)
    assert path.read_bytes() == dump(stream).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
