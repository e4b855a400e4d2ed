"""Monetary cost model (Section VII future-work extension)."""

import pytest

from repro.core.schedule import TaskAssignment
from repro.metrics import MetricsCollector
from repro.metrics.cost import (
    CostBreakdown,
    PricingModel,
    execution_cost,
    track_execution,
)
from repro.workload.entities import Resource

from tests.conftest import make_job, run_until


def _assignments():
    job = make_job(0, (10, 5), (4,), deadline=100)
    return [
        TaskAssignment(job.map_tasks[0], 0, 0, 0),
        TaskAssignment(job.map_tasks[1], 0, 1, 0),
        TaskAssignment(job.reduce_tasks[0], 0, 0, 10),
    ], job


def test_usage_cost_by_kind():
    assignments, _ = _assignments()
    pricing = PricingModel(
        map_slot_price=1.0,
        reduce_slot_price=2.0,
        resource_base_price=0.0,
        late_penalty=0.0,
    )
    cost = execution_cost(assignments, [Resource(0, 2, 1)], pricing)
    assert cost.map_usage_seconds == 15
    assert cost.reduce_usage_seconds == 4
    assert cost.usage_cost == 15 * 1.0 + 4 * 2.0
    assert cost.total == cost.usage_cost


def test_provisioning_cost_uses_span():
    assignments, _ = _assignments()
    pricing = PricingModel(
        map_slot_price=0.0, reduce_slot_price=0.0,
        resource_base_price=1.0, late_penalty=0.0,
    )
    # default span = makespan = 14
    cost = execution_cost(assignments, [Resource(0, 2, 1), Resource(1, 2, 1)], pricing)
    assert cost.provisioning_cost == 2 * 14
    explicit = execution_cost(
        assignments, [Resource(0, 2, 1)], pricing, span=100
    )
    assert explicit.provisioning_cost == 100


def test_penalty_from_metrics():
    assignments, job = _assignments()
    collector = MetricsCollector()
    collector.job_arrived(job)
    collector.job_completed(job, 200)  # past the deadline of 100
    metrics = collector.finalize()
    pricing = PricingModel(
        map_slot_price=0.0, reduce_slot_price=0.0,
        resource_base_price=0.0, late_penalty=7.5,
    )
    cost = execution_cost(assignments, [], pricing, metrics=metrics)
    assert cost.late_jobs == 1
    assert cost.penalty_cost == 7.5
    assert cost.total == 7.5


def test_per_job_usage_attribution():
    assignments, job = _assignments()
    pricing = PricingModel(1.0, 1.0, 0.0, 0.0)
    cost = execution_cost(assignments, [], pricing)
    assert cost.per_job_usage == {0: 19.0}


def test_cost_per_on_time_job():
    b = CostBreakdown(usage_cost=30.0, late_jobs=1)
    assert b.cost_per_on_time_job(jobs_completed=4) == 10.0
    assert b.cost_per_on_time_job(jobs_completed=1) == float("inf")


def test_negative_prices_rejected():
    with pytest.raises(ValueError):
        execution_cost([], [], PricingModel(map_slot_price=-1))


def test_track_execution_records_started_tasks():
    from repro.core.executor import ScheduledExecutor
    from repro.sim import Simulator

    sim = Simulator()
    ex = ScheduledExecutor(sim, [Resource(0, 2, 1)])
    assignments, job = _assignments()
    ex.register_job(job)
    executed = track_execution(ex)
    ex.install(assignments)
    run_until(sim, 5)
    assert len(executed) == 2  # the two maps started, the reduce has not
    sim.run()
    assert len(executed) == 3
    cost = execution_cost(executed, [Resource(0, 2, 1)])
    assert cost.map_usage_seconds == 15
