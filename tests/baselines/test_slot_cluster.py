"""Slot cluster mechanics and the scheduler event loop."""

import pytest

from repro.baselines.slot_cluster import SlotCluster, SlotPolicy, SlotScheduler
from repro.core.schedule import SchedulingError, SlotKind
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import Resource

from tests.conftest import make_job, run_until


def test_start_task_occupies_and_releases():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 1, 1)])
    job = make_job(0, (5,))
    cluster.start_task(job.map_tasks[0], 0)
    assert SlotPolicy.free_snapshot(cluster)[0, SlotKind.MAP] == 0
    assert cluster.running_count() == 1
    sim.run()
    assert SlotPolicy.free_snapshot(cluster)[0, SlotKind.MAP] == 1
    assert job.map_tasks[0].is_completed
    cluster.assert_quiescent()


def test_start_without_free_slot_rejected():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 1, 0)])
    job = make_job(0, (5, 5))
    cluster.start_task(job.map_tasks[0], 0)
    with pytest.raises(SchedulingError):
        cluster.start_task(job.map_tasks[1], 0)


def test_start_on_unknown_resource_rejected():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 1, 1)])
    job = make_job(0, (5,))
    with pytest.raises(SchedulingError):
        cluster.start_task(job.map_tasks[0], 3)


def test_double_start_rejected():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 2, 0)])
    job = make_job(0, (5,))
    cluster.start_task(job.map_tasks[0], 0)
    with pytest.raises(SchedulingError):
        cluster.start_task(job.map_tasks[0], 0)


def test_eligible_tasks_barrier():
    job = make_job(0, (5, 5), (3,))
    eligible = SlotPolicy.eligible_tasks(job)
    assert all(t.is_map for t in eligible)
    # dispatch both maps -> nothing eligible while they run
    for t in job.map_tasks:
        t.is_prev_scheduled = True
    assert SlotPolicy.eligible_tasks(job) == []
    # complete them -> reduces eligible
    for t in job.map_tasks:
        t.is_completed = True
    eligible = SlotPolicy.eligible_tasks(job)
    assert all(t.is_reduce for t in eligible)


def test_place_tasks_spreads_least_loaded():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 2, 0), Resource(1, 2, 0)])
    job = make_job(0, (5, 5, 5, 5))
    free = SlotPolicy.free_snapshot(cluster)
    placements = SlotPolicy.place_tasks(free, job.map_tasks)
    assert len(placements) == 4
    rids = [rid for _, rid in placements]
    assert rids.count(0) == 2 and rids.count(1) == 2


def test_place_tasks_limit():
    sim = Simulator()
    cluster = SlotCluster(sim, [Resource(0, 4, 0)])
    job = make_job(0, (5, 5, 5))
    free = SlotPolicy.free_snapshot(cluster)
    placements = SlotPolicy.place_tasks(free, job.map_tasks, limit=2)
    assert len(placements) == 2


class _GreedyPolicy(SlotPolicy):
    name = "greedy"

    def select(self, cluster, jobs, now):
        free = self.free_snapshot(cluster)
        out = []
        for job in jobs:
            out.extend(self.place_tasks(free, self.eligible_tasks(job)))
        return out


def test_scheduler_end_to_end_with_barrier():
    sim = Simulator()
    metrics = MetricsCollector()
    sched = SlotScheduler(sim, [Resource(0, 2, 1)], _GreedyPolicy(), metrics)
    job = make_job(0, (5, 7), (3,), deadline=100)
    sim.schedule_at(0, lambda: sched.submit(job))
    sim.run()
    sched.cluster.assert_quiescent()
    result = metrics.finalize()
    assert result.jobs_completed == 1
    # maps in parallel: done at 7; reduce 3 more -> 10
    assert result.makespan == 10


def test_scheduler_honours_earliest_start():
    sim = Simulator()
    metrics = MetricsCollector()
    sched = SlotScheduler(sim, [Resource(0, 1, 1)], _GreedyPolicy(), metrics)
    job = make_job(0, (5,), arrival=0, earliest_start=20, deadline=100)
    sim.schedule_at(0, lambda: sched.submit(job))
    run_until(sim, 10)
    assert sched.cluster.running_count() == 0
    sim.run()
    assert metrics.finalize().makespan == 25


def test_scheduler_queues_when_saturated():
    sim = Simulator()
    metrics = MetricsCollector()
    sched = SlotScheduler(sim, [Resource(0, 1, 0)], _GreedyPolicy(), metrics)
    j1 = make_job(0, (10,), deadline=100)
    j2 = make_job(1, (10,), deadline=100)
    sim.schedule_at(0, lambda: sched.submit(j1))
    sim.schedule_at(0, lambda: sched.submit(j2))
    sim.run()
    result = metrics.finalize()
    assert result.jobs_completed == 2
    assert result.makespan == 20  # strictly sequential on one slot
