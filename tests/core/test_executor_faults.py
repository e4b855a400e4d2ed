"""Executor fault transitions: injected failures, outages, abandonment."""

import pytest

from repro.core.executor import ScheduledExecutor
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.faults import FaultInjector, FaultModel
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import Resource

from tests.conftest import make_job


def _assign(task, rid=0, slot=0, start=0):
    return TaskAssignment(task=task, resource_id=rid, slot_index=slot, start=start)


class _ScriptedInjector(FaultInjector):
    """Returns pre-scripted one-shot outcomes per task id (then success)."""

    def __init__(self, outcomes):
        super().__init__(FaultModel(), [Resource(0, 2, 2)])
        self._outcomes = dict(outcomes)

    def attempt_outcome(self, task):
        from repro.faults import AttemptOutcome

        return self._outcomes.pop(
            task.id, AttemptOutcome(duration=task.duration)
        )


def _setup(outcomes=None, resources=None, **hooks):
    sim = Simulator()
    metrics = MetricsCollector()
    injector = _ScriptedInjector(outcomes or {})
    ex = ScheduledExecutor(
        sim,
        resources or [Resource(0, 2, 1)],
        metrics=metrics,
        fault_injector=injector,
        **hooks,
    )
    return sim, metrics, ex


def test_mid_execution_failure_frees_slot_and_bumps_attempts():
    from repro.faults import AttemptOutcome

    failed = []
    sim, metrics, ex = _setup(
        outcomes={"t0_m0": AttemptOutcome(duration=5, fails_after=2.5)},
        on_task_failed=lambda a, reason: failed.append((a.task.id, reason)),
    )
    job = make_job(0, (5, 5), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 1, start=0),
    ])
    sim.run()
    assert failed == [("t0_m0", "failure")]
    assert sim.now == pytest.approx(5.0)  # healthy sibling still finished
    assert job.map_tasks[0].attempts == 1
    assert not ex.is_started("t0_m0")  # re-queued as unstarted
    assert ex.is_completed("t0_m1")
    assert metrics.failures_injected == 1
    # The failed task is in no map until the next install re-plans it.
    state = ex.resilience_state()
    assert state["pending"] == {} and state["running"] == {}
    assert state["completed"] == ["t0_m1"]
    # The freed slot is reusable: re-plan the failed task and finish.
    retry = _assign(job.map_tasks[0], 0, 0, start=sim.now)
    ex.install([retry])
    assert list(ex.resilience_state()["pending"]) == ["t0_m0"]
    sim.run()
    assert ex.is_completed("t0_m0")
    ex.assert_quiescent()
    # Late events for a finished task are bugs, not no-ops.
    with pytest.raises(SchedulingError, match="completed twice"):
        ex._complete_task(retry)
    with pytest.raises(SchedulingError, match="stale failure"):
        ex._fail_task(retry, "failure")


def test_straggler_mutates_duration_and_fires_hook():
    from repro.faults import AttemptOutcome

    perturbed = []
    sim, metrics, ex = _setup(
        outcomes={"t0_m0": AttemptOutcome(duration=12)},
        on_task_perturbed=lambda a: perturbed.append(a.task.id),
    )
    job = make_job(0, (5,), deadline=100)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([_assign(job.map_tasks[0], 0, 0, start=0)])
    sim.run()
    assert perturbed == ["t0_m0"]
    assert sim.now == 12
    assert job.map_tasks[0].duration == 12
    assert job.map_tasks[0].nominal_duration == 5
    assert metrics.stragglers_injected == 1
    ex.assert_quiescent()


def test_outage_kills_running_and_cancels_pending_on_node():
    failed = []
    sim, metrics, ex = _setup(
        resources=[Resource(0, 1, 1), Resource(1, 1, 1)],
        on_task_failed=lambda a, reason: failed.append((a.task.id, reason)),
    )
    job = make_job(0, (10, 10, 10), deadline=200)
    metrics.job_arrived(job)
    ex.register_job(job)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),   # running when outage hits
        _assign(job.map_tasks[1], 1, 0, start=0),   # other node: survives
        _assign(job.map_tasks[2], 0, 0, start=12),  # pending on dead node
    ])
    sim.schedule_at(5, lambda: ex.fail_resource(0))
    sim.run()
    assert failed == [("t0_m0", "outage")]
    assert job.map_tasks[0].attempts == 1
    assert metrics.tasks_killed == 1
    assert ex.offline_resources == {0}
    assert ex.is_completed("t0_m1")
    assert not ex.is_started("t0_m2")  # pending entry was cancelled
    assert ex.planned_unstarted() == []
    # Recovery: the node accepts work again.
    ex.restore_resource(0)
    assert ex.offline_resources == set()
    now = sim.now
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=now),
        _assign(job.map_tasks[2], 0, 0, start=now + 10),
    ])
    sim.run()
    assert job.is_completed
    ex.assert_quiescent()


def test_start_on_offline_resource_is_a_bug():
    sim, metrics, ex = _setup()
    job = make_job(0, (5,), deadline=100)
    ex.register_job(job)
    ex.fail_resource(0)
    ex.install([_assign(job.map_tasks[0], 0, 0, start=1)])
    with pytest.raises(SchedulingError, match="offline"):
        sim.run()


def test_abandon_job_drops_pending_but_lets_running_finish():
    sim, metrics, ex = _setup()
    job = make_job(0, (5, 5), deadline=100)
    other = make_job(1, (5,), deadline=100)
    metrics.job_arrived(job)
    metrics.job_arrived(other)
    ex.register_job(job)
    ex.register_job(other)
    ex.install([
        _assign(job.map_tasks[0], 0, 0, start=0),
        _assign(job.map_tasks[1], 0, 0, start=10),
        _assign(other.map_tasks[0], 0, 1, start=0),
    ])
    sim.schedule_at(2, lambda: ex.abandon_job(job.id))
    sim.run()
    assert ex.is_completed("t0_m0")      # running attempt ran to completion
    assert not ex.is_started("t0_m1")    # pending entry dropped
    assert ex.is_completed("t1_m0")      # unrelated job unaffected
    ex.assert_quiescent()
