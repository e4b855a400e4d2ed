"""MRCP-RM fault recovery: retries, give-up, outages, solver degradation."""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.faults import FaultModel, OutageWindow
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import make_uniform_cluster

from tests.conftest import make_job


def _run(jobs, resources=None, config=None, before_run=None):
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        resources or make_uniform_cluster(2, 2, 2),
        config or MrcpRmConfig(solver=SolverParams(time_limit=0.5)),
        metrics,
    )
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    if before_run is not None:
        before_run(sim, rm)
    sim.run()
    rm.executor.assert_quiescent()
    return metrics.finalize(), rm


def _fault_config(**fault_kw):
    cfg_kw = {
        k: fault_kw.pop(k)
        for k in ("max_task_retries", "retry_backoff")
        if k in fault_kw
    }
    return MrcpRmConfig(
        solver=SolverParams(time_limit=0.5),
        faults=FaultModel(**fault_kw),
        **cfg_kw,
    )


def test_failed_tasks_are_retried_and_jobs_complete():
    jobs = [
        make_job(i, (4, 4), (6,), arrival=i * 5, earliest_start=i * 5,
                 deadline=i * 5 + 500)
        for i in range(4)
    ]
    metrics, _ = _run(jobs, config=_fault_config(task_failure_prob=0.3, seed=1))
    assert metrics.jobs_completed == 4
    assert metrics.jobs_failed == 0
    assert metrics.failures_injected > 0
    assert metrics.retries == metrics.failures_injected
    assert metrics.replans_on_failure > 0
    d = metrics.as_dict()
    assert d["retries"] == metrics.retries


def test_retry_budget_exhaustion_fails_the_job():
    """With a certain failure hazard every attempt dies; after
    max_task_retries the job is declared failed instead of looping."""
    job = make_job(0, (5,), deadline=500)
    metrics, rm = _run(
        [job],
        config=_fault_config(task_failure_prob=1.0, max_task_retries=2, seed=3),
    )
    assert metrics.jobs_completed == 0
    assert metrics.jobs_failed == 1
    assert metrics.failed_job_ids == [0]
    assert rm.failed_jobs == [0]
    # initial attempt + 2 retries, all failed
    assert metrics.failures_injected == 3
    assert metrics.retries == 2


def test_outage_preempts_and_recovers():
    job = make_job(0, (10, 10, 10, 10), deadline=500)
    metrics, _ = _run(
        [job],
        resources=make_uniform_cluster(2, 2, 2),
        config=_fault_config(outages=(OutageWindow(0, 3.0, 20.0),)),
    )
    assert metrics.jobs_completed == 1
    assert metrics.outages == 1
    assert metrics.tasks_killed > 0
    assert metrics.retries == metrics.tasks_killed


def test_full_cluster_outage_stalls_then_resumes():
    """When every resource is down the manager stalls instead of raising,
    and resumes scheduling on recovery."""
    job = make_job(0, (5, 5), deadline=500)
    metrics, _ = _run(
        [job],
        resources=make_uniform_cluster(2, 2, 2),
        config=_fault_config(
            outages=(OutageWindow(0, 2.0, 30.0), OutageWindow(1, 2.0, 30.0)),
        ),
    )
    assert metrics.jobs_completed == 1
    assert metrics.makespan >= 32  # nothing could run before recovery


def test_retry_backoff_delays_the_replan():
    fast, _ = _run(
        [make_job(0, (5,), deadline=500)],
        config=_fault_config(task_failure_prob=0.9, seed=5),
    )
    slow, _ = _run(
        [make_job(0, (5,), deadline=500)],
        config=_fault_config(task_failure_prob=0.9, retry_backoff=7.0, seed=5),
    )
    assert fast.failures_injected >= 1
    assert slow.makespan >= fast.makespan + 7


def test_forced_solver_timeout_degrades_to_edf_fallback():
    jobs = [
        make_job(i, (4, 4), (6,), arrival=i * 5, earliest_start=i * 5,
                 deadline=i * 5 + 500)
        for i in range(3)
    ]
    metrics, _ = _run(
        [jobs[0], jobs[1], jobs[2]],
        config=MrcpRmConfig(solver=SolverParams(time_limit=0.0)),
    )
    assert metrics.jobs_completed == 3
    assert metrics.fallback_solves > 0
    assert "fallback_solves" in metrics.as_dict()


def test_strict_mode_still_raises_on_timeout(monkeypatch):
    """A timed-out solve with no EDF fallback schedule to fall back on
    raises instead of dropping the job."""
    import repro.core.invocation as invocation
    from repro.core.schedule import SchedulingError

    monkeypatch.setattr(invocation, "list_schedule", lambda model, order: None)
    with pytest.raises(SchedulingError, match="timed out|unknown"):
        _run(
            [make_job(0, (5,), deadline=500)],
            config=MrcpRmConfig(solver=SolverParams(time_limit=0.0)),
        )


def test_fractional_time_trigger_rounds_up_not_down():
    """Regression: a scheduling event at a fractional simulation time must
    plan from ceil(now), not int(now) -- truncation planned starts in the
    past and the executor rejected them."""
    job1 = make_job(0, (5, 5), deadline=500)
    job2 = make_job(1, (5,), deadline=500)
    metrics, _ = _run(
        [job1],
        before_run=lambda sim, rm: sim.schedule_at(
            2.5, lambda: rm.submit(job2)
        ),
    )
    assert metrics.jobs_completed == 2


def test_faults_require_replanning_mode():
    with pytest.raises(ValueError, match="replan"):
        MrcpRm(
            Simulator(),
            make_uniform_cluster(2, 2, 2),
            MrcpRmConfig(
                replan=False, faults=FaultModel(task_failure_prob=0.5)
            ),
            MetricsCollector(),
        )
