"""Plan-driven executor: event generation, re-planning, invariants."""

import pytest

from repro.core.executor import ScheduledExecutor
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import Resource

from tests.conftest import make_job, run_until


def _setup(resources=None):
    sim = Simulator()
    metrics = MetricsCollector()
    executor = ScheduledExecutor(
        sim, resources or [Resource(0, 2, 1)], metrics=metrics
    )
    return sim, metrics, executor


def _assign(task, rid=0, slot=0, start=0):
    return TaskAssignment(task=task, resource_id=rid, slot_index=slot, start=start)


def test_tasks_start_at_planned_times():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,), (3,), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=2),
        _assign(job.reduce_tasks[0], 0, 0, start=7),
    ])
    sim.run()
    assert job.is_completed
    assert metrics.finalize().turnarounds[job.id] == 10
    ex.assert_quiescent()


def test_job_completion_recorded_once():
    sim, metrics, ex = _setup()
    job = make_job(0, (5, 5), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 1, start=0),
    ])
    sim.run()
    assert metrics.finalize().jobs_completed == 1


def test_replan_moves_unstarted_tasks():
    sim, metrics, ex = _setup()
    job = make_job(0, (5, 5), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 0, start=20),
    ])
    run_until(sim, 10)
    # task 0 started and finished; re-plan task 1 earlier
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),  # frozen pass-through
        _assign(job.map_tasks[1], 0, 1, start=12),
    ])
    sim.run()
    assert metrics.finalize().turnarounds[job.id] == 17


def test_replan_cannot_move_started_tasks():
    sim, metrics, ex = _setup()
    job = make_job(0, (10,), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    original = _assign(job.map_tasks[0], 0, 0, start=0)
    ex.install([original])
    run_until(sim, 5)
    assert [a.task.id for a in ex.snapshot_running()] == [job.map_tasks[0].id]
    # attempt to move it: silently ignored (frozen)
    ex.install([_assign(job.map_tasks[0], 0, 1, start=50)])
    sim.run()
    assert metrics.finalize().turnarounds[job.id] == 10


def test_snapshot_running():
    sim, metrics, ex = _setup()
    job = make_job(0, (10,), (3,), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.reduce_tasks[0], 0, 0, start=10),
    ])
    run_until(sim, 5)
    running = ex.snapshot_running()
    assert [a.task.id for a in running] == [job.map_tasks[0].id]
    assert job.map_tasks[0].is_prev_scheduled
    assert [a.task.id for a in ex.planned_unstarted()] == [job.reduce_tasks[0].id]


def test_each_task_is_in_exactly_one_state():
    sim, metrics, ex = _setup([Resource(0, 2, 1), Resource(1, 2, 1)])
    j1 = make_job(0, (4, 6), (3,), deadline=100)
    j2 = make_job(1, (5, 5), (2,), deadline=100)
    plan = []
    for rid, job in enumerate((j1, j2)):
        metrics.job_arrived(job)
        ex.register_job(job)
        plan += [
            _assign(job.map_tasks[0], rid, 0, start=0),
            _assign(job.map_tasks[1], rid, 1, start=2),
            _assign(job.reduce_tasks[0], rid, 0, start=9),
        ]
    ex.install(plan)
    planned = {a.task.id for a in plan}
    seen = []
    for until in (1, 3, 5, 8, 10, float("inf")):
        run_until(sim, until)
        state = ex.resilience_state()
        pending, running = set(state["pending"]), set(state["running"])
        completed = set(state["completed"])
        assert not (pending & running or pending & completed
                    or running & completed)
        assert pending | running == planned - completed
        assert pending == {a.task.id for a in ex.planned_unstarted()}
        assert running == {a.task.id for a in ex.snapshot_running()}
        seen.append((len(pending), len(running), len(completed)))
    # the pauses caught tasks in every state, and drain empties both maps
    assert seen == [
        (4, 2, 0), (2, 4, 0), (2, 2, 2), (2, 0, 4), (0, 2, 4), (0, 0, 6)
    ]
    ex.assert_quiescent()


def test_past_start_rejected():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        ex.install([_assign(job.map_tasks[0], start=5)])


def test_double_booked_slot_detected_at_start():
    sim, metrics, ex = _setup()
    job = make_job(0, (5, 5), deadline=100)
    ex.register_job(job)
    # both tasks on the same slot at overlapping times: install succeeds
    # (install does not validate) but the start event must blow up
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 0, start=3),
    ])
    with pytest.raises(SchedulingError, match="double-booked"):
        sim.run()


def test_back_to_back_on_same_slot_ok():
    sim, metrics, ex = _setup()
    job = make_job(0, (5, 5), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 0, start=5),  # starts as the first ends
    ])
    sim.run()
    assert metrics.finalize().turnarounds[job.id] == 10


def test_unknown_resource_rejected_at_start():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    ex.install([_assign(job.map_tasks[0], rid=9)])
    with pytest.raises(SchedulingError, match="unknown resource"):
        sim.run()


def test_slot_index_out_of_range_rejected():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    ex.install([_assign(job.map_tasks[0], 0, 7, start=0)])
    with pytest.raises(SchedulingError, match="out of range"):
        sim.run()


def test_quiescence_detects_pending_tasks():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    ex.install([_assign(job.map_tasks[0], 0, 0, start=50)])
    run_until(sim, 10)
    with pytest.raises(SchedulingError, match="never started"):
        ex.assert_quiescent()


def test_add_only_install_with_replace_false():
    sim, metrics, ex = _setup()
    j1 = make_job(0, (5,), deadline=100)
    j2 = make_job(1, (5,), deadline=100)
    metrics.job_arrived(j1)
    metrics.job_arrived(j2)
    ex.register_job(j1)
    ex.register_job(j2)
    a1 = _assign(j1.map_tasks[0], 0, 0, start=0)
    ex.install([a1])
    # schedule-once mode: add j2 without cancelling j1's plan
    ex.install([a1, _assign(j2.map_tasks[0], 0, 1, start=0)], replace=False)
    sim.run()
    assert metrics.finalize().jobs_completed == 2


def test_conflicting_duplicate_plan_rejected():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    ex.install([_assign(job.map_tasks[0], 0, 0, start=0)])
    with pytest.raises(SchedulingError, match="conflicting"):
        ex.install(
            [_assign(job.map_tasks[0], 0, 0, start=4)], replace=False
        )


def test_stale_start_event_rejected():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    old = _assign(job.map_tasks[0], 0, 0, start=0)
    ex.install([old])
    ex.install([_assign(job.map_tasks[0], 0, 1, start=3)])  # supersedes it
    with pytest.raises(SchedulingError, match="stale start"):
        ex._start_task(old)


def test_completion_without_the_slot_rejected():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,))
    ex.register_job(job)
    with pytest.raises(SchedulingError, match="not held"):
        ex._complete_task(_assign(job.map_tasks[0], 0, 0, start=0))
