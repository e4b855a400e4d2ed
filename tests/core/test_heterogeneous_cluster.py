"""Non-uniform clusters through both formulation modes."""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.core.formulation import FormulationMode
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.entities import Resource

from tests.conftest import make_job


#: map-only node, reduce-only node, mixed node.
SPEC = [(4, 0), (0, 4), (2, 2)]


def _cluster():
    return [Resource(i, maps, reduces) for i, (maps, reduces) in enumerate(SPEC)]


def _run(jobs, mode):
    resources = _cluster()
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim, resources,
        MrcpRmConfig(mode=mode, solver=SolverParams(time_limit=0.5)),
        metrics,
    )
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    sim.run()
    rm.executor.assert_quiescent()
    return metrics.finalize()


@pytest.mark.parametrize(
    "mode", [FormulationMode.COMBINED, FormulationMode.JOINT]
)
def test_mixed_cluster_schedules_both_modes(mode):
    jobs = [
        make_job(i, (4, 4, 4), (6,), arrival=i * 3, earliest_start=i * 3,
                 deadline=500)
        for i in range(4)
    ]
    metrics = _run([j.copy() for j in jobs], mode)
    assert metrics.jobs_completed == 4
    assert metrics.late_jobs == 0


def test_reduce_only_node_never_gets_maps():
    """In joint mode the solver never offers map tasks to a node without
    map slots (formulation filters candidates)."""
    from repro.core.formulation import build_model
    from repro.workload.entities import TaskKind

    jobs = [make_job(0, (5, 5), (3,), deadline=500)]
    result = build_model(
        jobs, _cluster(), now=0,
        mode=FormulationMode.JOINT,
    )
    for option, rid in result.resource_of_option.items():
        task = result.task_of[
            next(a.master for a in result.model.alternatives if option in a.options)
        ]
        if task.kind is TaskKind.MAP:
            assert rid in (0, 2)  # nodes with map slots
        else:
            assert rid in (1, 2)  # nodes with reduce slots
