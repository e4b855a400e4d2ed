"""Data-transfer delays on workflow edges (communication-cost extension)."""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.core.schedule import Schedule, TaskAssignment, validate_schedule
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload import make_uniform_cluster
from repro.workload.entities import (
    Resource,
    Task,
    TaskKind,
    minimum_execution_time,
)
from repro.workload.validate import validate_jobs
from repro.workload.workflows import (
    Stage,
    WorkflowJob,
    WorkflowWorkloadParams,
    generate_workflow_workload,
)


def _task(tid, job_id=0, duration=5):
    return Task(tid, job_id, TaskKind.MAP, duration)


def _chain_with_delay(delay=7, deadline=1000):
    return WorkflowJob(
        id=0, arrival_time=0, earliest_start=0, deadline=deadline,
        stages=[Stage("A", [_task("a0")]), Stage("B", [_task("b0")])],
        edges=[("A", "B")],
        edge_delays={("A", "B"): delay},
    )


def test_negative_delay_rejected():
    with pytest.raises(ValueError, match="negative delay"):
        _chain_with_delay(delay=-1)


def test_delay_on_unknown_edge_rejected():
    with pytest.raises(ValueError, match="unknown edge"):
        WorkflowJob(
            id=0, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [_task("a0")])],
            edges=[],
            edge_delays={("A", "B"): 3},
        )


def test_critical_path_includes_delay():
    wf = _chain_with_delay(delay=7)
    # A(5) + transfer(7) + B(5)
    assert minimum_execution_time(wf, 4, 4) == 17


def test_executed_schedule_honours_delay():
    wf = _chain_with_delay(delay=7)
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim, make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(solver=SolverParams(time_limit=0.3)), metrics,
    )
    sim.schedule_at(0, lambda: rm.submit(wf))
    sim.run()
    rm.executor.assert_quiescent()
    assert metrics.finalize().makespan == 17  # 5 + 7 + 5


def test_validator_checks_delay():
    wf = _chain_with_delay(delay=7)
    a, b = wf.stages[0].tasks[0], wf.stages[1].tasks[0]
    good = Schedule()
    good.add(TaskAssignment(a, 0, 0, 0))
    good.add(TaskAssignment(b, 0, 1, 12))  # 5 + 7
    assert validate_schedule(good, [wf], [Resource(0, 2, 0)]) == []
    bad = Schedule()
    bad.add(TaskAssignment(a, 0, 0, 0))
    bad.add(TaskAssignment(b, 0, 1, 8))  # after A but inside the delay
    problems = validate_schedule(bad, [wf], [Resource(0, 2, 0)])
    assert any("delay" in p for p in problems)


def test_generator_draws_delays():
    params = WorkflowWorkloadParams(
        num_jobs=10, stages_range=(2, 3), transfer_delay_range=(1, 5)
    )
    wfs = generate_workflow_workload(params, seed=4)
    assert validate_jobs(wfs) == []
    assert any(w.edge_delays for w in wfs)
    for w in wfs:
        for d in w.edge_delays.values():
            assert 1 <= d <= 5


def test_generator_delay_validation():
    with pytest.raises(ValueError):
        generate_workflow_workload(
            WorkflowWorkloadParams(transfer_delay_range=(-1, 2))
        )


def test_delayed_workflow_stream_end_to_end():
    params = WorkflowWorkloadParams(
        num_jobs=6, stages_range=(2, 3), tasks_per_stage_range=(1, 3),
        e_max=8, arrival_rate=0.05, transfer_delay_range=(1, 10),
        total_map_slots=4, total_reduce_slots=4,
    )
    wfs = generate_workflow_workload(params, seed=6)
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim, make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(solver=SolverParams(time_limit=0.2)), metrics,
    )
    for wf in wfs:
        sim.schedule_at(wf.arrival_time, lambda j=wf: rm.submit(j))
    sim.run()
    rm.executor.assert_quiescent()
    assert metrics.finalize().jobs_completed == 6


def test_trace_round_trip_preserves_delays():
    import json

    from repro.workload.traces import workflows_to_json

    [row] = json.loads(workflows_to_json([_chain_with_delay(delay=9)]))["workflows"]
    assert row["edge_delays"] == [["A", "B", 9]]
