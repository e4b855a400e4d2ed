"""Trace persistence round-trips."""

import pytest

from repro.workload.synthetic import SyntheticWorkloadParams, generate_synthetic_workload
from repro.workload.traces import (
    jobs_from_json,
    jobs_to_json,
    load_trace,
    save_trace,
)


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
    restored = jobs_from_json(jobs_to_json(jobs))
    assert len(restored) == len(jobs)
    for a, b in zip(jobs, restored):
        assert (a.id, a.arrival_time, a.earliest_start, a.deadline) == (
            b.id,
            b.arrival_time,
            b.earliest_start,
            b.deadline,
        )
        assert [(t.id, t.duration, t.kind) for t in a.tasks] == [
            (t.id, t.duration, t.kind) for t in b.tasks
        ]


def test_file_round_trip(tmp_path):
    jobs = _jobs()
    path = tmp_path / "trace.json"
    save_trace(jobs, path)
    restored = load_trace(path)
    assert [j.id for j in restored] == [j.id for j in jobs]


def test_runtime_state_not_persisted():
    jobs = _jobs()
    jobs[0].map_tasks[0].is_completed = True
    restored = jobs_from_json(jobs_to_json(jobs))
    assert not restored[0].map_tasks[0].is_completed


def test_unknown_version_rejected():
    with pytest.raises(ValueError):
        jobs_from_json('{"version": 99, "jobs": []}')


def test_workflow_trace_round_trip(tmp_path):
    from repro.workload.traces import (
        load_workflow_trace,
        save_workflow_trace,
        workflows_from_json,
        workflows_to_json,
    )
    from repro.workload.workflows import (
        WorkflowWorkloadParams,
        generate_workflow_workload,
        validate_workflows,
    )

    wfs = generate_workflow_workload(
        WorkflowWorkloadParams(num_jobs=5, stages_range=(2, 4)), seed=7
    )
    restored = workflows_from_json(workflows_to_json(wfs))
    assert validate_workflows(restored) == []
    assert workflows_to_json(restored) == workflows_to_json(wfs)
    for a, b in zip(wfs, restored):
        assert a.edges == b.edges
        assert [s.name for s in a.stages] == [s.name for s in b.stages]

    path = tmp_path / "wf.json"
    save_workflow_trace(wfs, path)
    assert [w.id for w in load_workflow_trace(path)] == [w.id for w in wfs]


def test_workflow_trace_rejects_plain_job_trace():
    from repro.workload.traces import workflows_from_json

    with pytest.raises(ValueError, match="workflow"):
        workflows_from_json('{"version": 1, "jobs": []}')


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
