"""The schedule-once ablation plans every arrival around the earlier plans.

Those plans are frozen work of jobs that are not being planned: they sit
under the model as a :class:`~repro.core.matchmaking.FrozenBase` rather
than as fixed intervals.  The numbers below were recorded with the fixed
intervals; the base must reproduce them exactly, search effort included.
"""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.core.formulation import FormulationMode
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

WORKLOAD = SyntheticWorkloadParams(
    num_jobs=12,
    map_tasks_range=(1, 8),
    reduce_tasks_range=(1, 4),
    e_max=10,
    ar_probability=0.5,
    s_max=100,
    deadline_multiplier_max=2.0,
    arrival_rate=0.3,
    total_map_slots=6,
    total_reduce_slots=6,
)


@pytest.mark.parametrize(
    "mode, fails, branches",
    [(FormulationMode.COMBINED, 50, 49), (FormulationMode.JOINT, 203, 203)],
)
def test_schedule_once_pin(mode, fails, branches):
    sim = Simulator()
    metrics = MetricsCollector()
    config = MrcpRmConfig(
        replan=False,
        mode=mode,
        solver=SolverParams(time_limit=30.0, tree_fail_limit=200, use_lns=False),
    )
    rm = MrcpRm(sim, make_uniform_cluster(3, 2, 2), config, metrics)
    for job in generate_synthetic_workload(WORKLOAD, seed=4):
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    sim.run()
    rm.executor.assert_quiescent()
    m = metrics.finalize()
    assert (m.late_jobs, m.proportion_late) == (3, 0.25)
    assert m.avg_turnaround == pytest.approx(938 / 12, abs=1e-9)
    assert (m.solver_fails, m.solver_branches) == (fails, branches)
