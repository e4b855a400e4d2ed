"""Property: attribution components sum exactly to measured tardiness.

For every late job, across seeded fault-injected and fault-free runs, the
four integer-microsecond components of the lateness attribution must be
nonnegative and sum *exactly* (no float tolerance) to the job's measured
tardiness, and every late job must receive exactly one attribution.
"""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.faults import FaultModel
from repro.metrics import MetricsCollector
from repro.obs import ObsConfig
from repro.obs.conformance import validate_trace_events
from repro.obs.forensics import attribute_lateness
from repro.sim import RandomStreams, Simulator
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

_US = 1_000_000


def _run(seed: int, with_faults: bool):
    """A deadline-tight traced run; returns everything forensics needs."""
    params = SyntheticWorkloadParams(
        num_jobs=10,
        map_tasks_range=(1, 6),
        reduce_tasks_range=(1, 3),
        e_max=10,
        ar_probability=0.5,
        s_max=200,
        deadline_multiplier_max=1.4,
        arrival_rate=0.05,
        total_map_slots=8,
        total_reduce_slots=8,
    )
    jobs = generate_synthetic_workload(params, streams=RandomStreams(seed))
    resources = make_uniform_cluster(4, 2, 2)
    sim = Simulator()
    metrics = MetricsCollector()
    tracer = ObsConfig(trace=True).make_tracer()
    tracer.bind_sim_clock(lambda: sim.now)
    sim.attach_observability(tracer.registry)
    faults = None
    if with_faults:
        faults = FaultModel(
            task_failure_prob=0.2,
            straggler_prob=0.25,
            straggler_factor=2.5,
            outage_rate=0.003,
            outage_duration_range=(20.0, 60.0),
            outage_horizon=1500.0,
            seed=seed,
        )
    config = MrcpRmConfig(
        faults=faults,
        record_plan_history=True,
        solver=SolverParams(time_limit=0.3, tree_fail_limit=100, use_lns=False),
    )
    manager = MrcpRm(sim, resources, config, metrics, tracer=tracer)
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    sim.run()
    manager.executor.assert_quiescent()
    return metrics.finalize(), jobs, tracer.recorder.events, manager.plan_history


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("with_faults", [False, True], ids=["clean", "faults"])
def test_components_sum_exactly_to_tardiness(seed, with_faults):
    result, jobs, events, plan_history = _run(seed, with_faults)
    attributions = attribute_lateness(
        result, jobs, events, plan_history=plan_history
    )
    # one attribution per late job, matching the collector's count
    assert len(attributions) == result.late_jobs
    assert {a.job_id for a in attributions} == set(result.tardiness_by_job)
    for a in attributions:
        parts = a.components_us
        assert all(v >= 0 for v in parts.values()), (a.job_id, parts)
        assert sum(parts.values()) == a.tardiness_us, (a.job_id, parts)
        # the exact-µs tardiness matches the collector's integer seconds
        assert a.tardiness_us == result.tardiness_by_job[a.job_id] * _US
        # raw measures are never negative either
        assert a.raw_contention >= 0
        assert a.raw_solver >= 0
        assert a.raw_fault >= 0


def test_faulted_run_attributes_fault_delay():
    """Fault injection shows up as nonzero fault components somewhere."""
    result, jobs, events, plan_history = _run(3, with_faults=True)
    assert validate_trace_events(events) == []
    attributions = attribute_lateness(
        result, jobs, events, plan_history=plan_history
    )
    if result.late_jobs and (
        result.failures_injected
        or result.stragglers_injected
        or result.tasks_killed
    ):
        assert any(a.raw_fault > 0 for a in attributions)


def test_plan_history_recorded_only_when_asked():
    """The plan-history hook is opt-in; the default config keeps none."""
    params = SyntheticWorkloadParams(
        num_jobs=3, total_map_slots=8, total_reduce_slots=8
    )
    jobs = generate_synthetic_workload(params, streams=RandomStreams(0))
    resources = make_uniform_cluster(2, 2, 2)
    sim = Simulator()
    manager = MrcpRm(
        sim,
        resources,
        MrcpRmConfig(
            solver=SolverParams(time_limit=0.3, tree_fail_limit=100,
                                use_lns=False)
        ),
        MetricsCollector(),
    )
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    sim.run()
    assert manager.plan_history == []
