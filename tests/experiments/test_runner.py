"""Experiment runner: configs, replications, scheduler parity."""

import pytest

from repro.core import MrcpRmConfig
from repro.experiments.runner import (
    RunConfig,
    SystemConfig,
    _generate_jobs,
    build_live_run,
    run_once,
)
from repro.faults import FaultModel
from repro.workload import SyntheticWorkloadParams


def _tiny_synthetic(**kw):
    params = dict(
        num_jobs=6,
        map_tasks_range=(1, 4),
        reduce_tasks_range=(1, 2),
        e_max=8,
        ar_probability=0.2,
        s_max=50,
        deadline_multiplier_max=3.0,
        arrival_rate=0.05,
    )
    params.update(kw)
    return SyntheticWorkloadParams(**params)


def _config(scheduler="mrcp-rm", **kw):
    cfg = RunConfig(
        scheduler=scheduler,
        workload="synthetic",
        synthetic=_tiny_synthetic(),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
    )
    cfg.mrcp.solver.time_limit = 0.2
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        _config(scheduler="bogus").validate()
    cfg = _config()
    cfg.synthetic = None
    with pytest.raises(ValueError):
        cfg.validate()
    cfg2 = _config()
    cfg2.workload = "facebook"
    with pytest.raises(ValueError):
        cfg2.validate()


def test_each_replication_reseeds_the_fault_model():
    """Faults set on the manager's config draw anew per replication, from
    the replication's stream seed, and only MRCP-RM accepts them."""
    faulty = MrcpRmConfig(faults=FaultModel(task_failure_prob=0.3))
    runs = [build_live_run(_config(mrcp=faulty), r) for r in range(3)]
    assert [run.manager.config.faults.seed for run in runs] == [0, 1, 2]
    assert [run.seed for run in runs] == [0, 1, 2]
    assert faulty.faults.seed == 0  # the caller's config is not mutated
    with pytest.raises(ValueError, match="fault injection"):
        _config("minedf-wc", mrcp=faulty).validate()


@pytest.mark.parametrize("scheduler", ["mrcp-rm", "minedf-wc", "edf", "fcfs"])
def test_run_once_all_schedulers(scheduler):
    metrics = run_once(_config(scheduler), replication=0)
    assert metrics.jobs_arrived == 6
    assert metrics.jobs_completed == 6
    assert 0.0 <= metrics.proportion_late <= 1.0


def test_workload_identical_across_schedulers():
    """Competing schedulers must face the same job stream."""
    a = _generate_jobs(_config("mrcp-rm"), seed=5)
    b = _generate_jobs(_config("fcfs"), seed=5)
    assert [j.deadline for j in a] == [j.deadline for j in b]
    assert [t.duration for j in a for t in j.tasks] == [
        t.duration for j in b for t in j.tasks
    ]


def test_replications_differ():
    m0 = run_once(_config("fcfs"), replication=0)
    m1 = run_once(_config("fcfs"), replication=1)
    assert m0.avg_turnaround != m1.avg_turnaround


def test_run_once_deterministic():
    m0 = run_once(_config("fcfs"), replication=0)
    m1 = run_once(_config("fcfs"), replication=0)
    assert m0.avg_turnaround == m1.avg_turnaround
    assert m0.late_jobs == m1.late_jobs


def test_a_replication_writes_its_trace_where_it_is_told(tmp_path):
    from dataclasses import replace

    from repro.obs import ObsConfig

    path = tmp_path / "trace.json"
    config = replace(_config("mrcp-rm"), obs=ObsConfig(trace_out=str(path)))
    run_once(config, replication=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json", "trace.jsonl"]


def test_workflow_workload_through_runner():
    from repro.workload import WorkflowWorkloadParams

    cfg = RunConfig(
        scheduler="mrcp-rm",
        workload="workflow",
        workflow=WorkflowWorkloadParams(
            num_jobs=4, stages_range=(2, 3), tasks_per_stage_range=(1, 3),
            e_max=8, arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
    )
    cfg.mrcp.solver.time_limit = 0.2
    metrics = run_once(cfg, replication=0)
    assert metrics.jobs_completed == 4


@pytest.mark.parametrize("scheduler", ["minedf-wc", "edf", "fcfs"])
def test_workflow_through_slot_baselines(scheduler):
    from repro.workload import WorkflowWorkloadParams

    cfg = RunConfig(
        scheduler=scheduler,
        workload="workflow",
        workflow=WorkflowWorkloadParams(
            num_jobs=4, stages_range=(2, 3), tasks_per_stage_range=(1, 3),
            e_max=8, arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
    )
    metrics = run_once(cfg, replication=0)
    assert metrics.jobs_completed == 4


def test_workflow_transfer_delays_require_mrcp():
    from repro.workload import WorkflowWorkloadParams

    cfg = RunConfig(
        scheduler="minedf-wc",
        workload="workflow",
        workflow=WorkflowWorkloadParams(
            num_jobs=2, transfer_delay_range=(1, 5)
        ),
    )
    with pytest.raises(ValueError, match="transfer delays"):
        cfg.validate()


def test_te_uses_configured_system_size():
    cfg = _config("fcfs")
    jobs_small = _generate_jobs(cfg, seed=1)
    cfg_big = _config("fcfs")
    cfg_big.system = SystemConfig(num_resources=50, map_slots=2, reduce_slots=2)
    jobs_big = _generate_jobs(cfg_big, seed=1)
    # bigger cluster -> smaller TE -> tighter absolute deadlines
    assert sum(j.deadline for j in jobs_big) <= sum(j.deadline for j in jobs_small)
