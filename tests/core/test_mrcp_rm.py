"""MRCP-RM end-to-end behaviour inside the simulation."""

from repro.core import MrcpRm, MrcpRmConfig
from repro.core.formulation import FormulationMode
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import Resource, make_uniform_cluster

from tests.conftest import make_job, run_until


def _run(jobs, resources=None, config=None):
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
    sim.run()
    rm.executor.assert_quiescent()
    return metrics.finalize(), rm


def test_single_job_completes_on_time():
    job = make_job(0, (5, 5), (3,), deadline=100)
    metrics, _ = _run([job])
    assert metrics.jobs_completed == 1
    assert metrics.late_jobs == 0
    # 2 maps in parallel (5) + reduce (3): completion at 8
    assert metrics.makespan == 8
    assert metrics.avg_turnaround == 8


def test_open_stream_all_jobs_complete():
    jobs = [
        make_job(i, (4, 4), (6,), arrival=i * 3, earliest_start=i * 3,
                 deadline=i * 3 + 200)
        for i in range(6)
    ]
    metrics, _ = _run(jobs)
    assert metrics.jobs_completed == 6
    assert metrics.late_jobs == 0
    assert metrics.scheduler_invocations >= 6


def test_earliest_start_respected():
    job = make_job(0, (5,), arrival=0, earliest_start=50, deadline=200)
    metrics, rm = _run([job])
    assert metrics.makespan == 55  # starts exactly at its EST
    # turnaround is measured from the SLA earliest start, not arrival
    assert metrics.avg_turnaround == 5


def test_est_deferral_queues_future_jobs():
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(est_deferral=True, lookahead=0),
        metrics,
    )
    job = make_job(0, (5,), arrival=0, earliest_start=40, deadline=100)
    sim.schedule_at(0, lambda: rm.submit(job))
    run_until(sim, 10)
    assert rm.resilience_state()["deferred"] == [job.id]
    assert rm.active_jobs == []
    sim.run()
    assert metrics.finalize().jobs_completed == 1


def test_deferral_disabled_schedules_immediately():
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(est_deferral=False),
        metrics,
    )
    job = make_job(0, (5,), arrival=0, earliest_start=40, deadline=100)
    sim.schedule_at(0, lambda: rm.submit(job))
    run_until(sim, 1)
    assert rm.resilience_state()["deferred"] == []
    assert rm.active_jobs == [job]
    sim.run()
    assert metrics.finalize().makespan == 45


def test_urgent_arrival_preempts_planned_work():
    """A new job with a tight deadline is re-planned ahead of a queued one.

    The relaxed job's first map is already running when the urgent job
    arrives (it cannot be preempted), but its *second* map has not started:
    re-planning must push it behind the urgent job's task.  Without
    re-planning the urgent job would start at t=20 and finish at 30 > 21.
    """
    relaxed = make_job(0, (10, 10), deadline=1000)  # lots of slack
    urgent = make_job(1, (10,), arrival=1, earliest_start=1, deadline=21)
    resources = [Resource(0, 1, 1)]  # a single map slot
    metrics, _ = _run([relaxed, urgent], resources=resources)
    assert metrics.jobs_completed == 2
    assert metrics.late_jobs == 0


def test_barrier_enforced_through_execution():
    job = make_job(0, (7, 3), (4,), deadline=100)
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(sim, make_uniform_cluster(1, 2, 2), MrcpRmConfig(), metrics)
    starts = {}
    orig = rm.executor._start_task

    def spy(a):
        starts[a.task.id] = sim.now
        orig(a)

    rm.executor._start_task = spy
    sim.schedule_at(0, lambda: rm.submit(job))
    sim.run()
    red_start = starts[job.reduce_tasks[0].id]
    assert red_start >= max(
        starts[t.id] + t.duration for t in job.map_tasks
    )


def test_joint_mode_runs(small_resources):
    jobs = [make_job(i, (4,), (3,), arrival=i * 2, earliest_start=i * 2,
                     deadline=100 + i * 2) for i in range(3)]
    cfg = MrcpRmConfig(
        mode=FormulationMode.JOINT, solver=SolverParams(time_limit=0.5)
    )
    metrics, _ = _run(jobs, resources=small_resources, config=cfg)
    assert metrics.jobs_completed == 3
    assert metrics.late_jobs == 0


def test_schedule_once_mode_runs():
    jobs = [make_job(i, (4, 4), (3,), arrival=i * 2, earliest_start=i * 2,
                     deadline=200) for i in range(4)]
    cfg = MrcpRmConfig(replan=False, solver=SolverParams(time_limit=0.5))
    metrics, _ = _run(jobs, config=cfg)
    assert metrics.jobs_completed == 4


def test_overhead_recorded_per_invocation():
    jobs = [make_job(i, (3,), arrival=i * 5, earliest_start=i * 5,
                     deadline=500) for i in range(3)]
    metrics, _ = _run(jobs)
    assert metrics.scheduler_invocations >= 3
    assert metrics.total_sched_overhead > 0
    assert metrics.avg_sched_overhead > 0


def test_unschedulable_late_job_still_completes():
    """A job that can't meet its deadline runs anyway and counts late."""
    job = make_job(0, (10, 10, 10, 10), deadline=12)
    metrics, _ = _run([job], resources=[Resource(0, 1, 1)])
    assert metrics.jobs_completed == 1
    assert metrics.late_jobs == 1
    assert metrics.percent_late == 100.0


def test_sla_earliest_start_not_mutated_by_clamping():
    """Table 2 clamps the *effective* EST; the SLA field must survive for
    the turnaround metric."""
    early = make_job(0, (5,), deadline=100)
    late_arrival = make_job(1, (5,), arrival=30, earliest_start=30, deadline=130)
    metrics, _ = _run([early, late_arrival])
    assert early.earliest_start == 0
    assert late_arrival.earliest_start == 30
