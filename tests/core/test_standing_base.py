"""The simulator's standing frozen base equals a fresh base per invocation.

:class:`MrcpRm` keeps one :class:`FrozenBase` for the run and syncs it to the
executor's frozen set at each invocation.  The reference below is the path
it replaced: placement on a fresh base built from the frozen set every
time.  Seeded runs -- combined, joint, schedule-once, and with task
failures, stragglers, speed-ups and outages -- must install the same plans
and end in the same state, and after each sync the base must hold exactly
the frozen set.
"""

import pytest

import repro.core.mrcp_rm as mrcp_rm
from repro.core import MrcpRm, MrcpRmConfig
from repro.core.formulation import FormulationMode
from repro.core.matchmaking import FrozenBase
from repro.cp.solver import SolverParams
from repro.faults import FaultModel, OutageWindow
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload import SyntheticWorkloadParams, generate_synthetic_workload
from repro.workload.entities import make_uniform_cluster

from tests.core.test_placement_index import index_state, rebuilt_index

#: The fail limit binds, never the clock, so both runs solve alike.
SOLVER = SolverParams(time_limit=30.0, tree_fail_limit=200, use_lns=False)

JOBS = SyntheticWorkloadParams(
    num_jobs=14,
    map_tasks_range=(1, 6),
    reduce_tasks_range=(1, 4),
    e_max=20,
    ar_probability=0.3,
    s_max=150,
    deadline_multiplier_max=4.0,
    arrival_rate=0.08,
    total_map_slots=6,
    total_reduce_slots=6,
)

SCENARIOS = {
    "combined": MrcpRmConfig(solver=SOLVER),
    "joint": MrcpRmConfig(solver=SOLVER, mode=FormulationMode.JOINT),
    "schedule_once": MrcpRmConfig(solver=SOLVER, replan=False),
    "failures": MrcpRmConfig(
        solver=SOLVER, faults=FaultModel(task_failure_prob=0.25, seed=4)
    ),
    "perturbed": MrcpRmConfig(
        solver=SOLVER,
        faults=FaultModel(straggler_prob=0.3, jitter_sigma=0.4, seed=7),
    ),
    "outages": MrcpRmConfig(
        solver=SOLVER,
        faults=FaultModel(
            task_failure_prob=0.1,
            straggler_prob=0.2,
            outages=(OutageWindow(0, 12.0, 40.0), OutageWindow(2, 30.0, 25.0)),
            seed=2,
        ),
    ),
}


def run(config, seed):
    """One seeded run: the plan of every install, and the state at drain."""
    sim = Simulator()
    rm = MrcpRm(sim, make_uniform_cluster(3, 2, 2), config, MetricsCollector())
    installs = []
    install = rm.executor.install

    def recording(assignments, replace=True):
        assignments = list(assignments)
        installs.append(
            [(a.task.id, a.resource_id, a.slot_index, a.start) for a in assignments]
        )
        install(assignments, replace)

    rm.executor.install = recording
    for job in generate_synthetic_workload(JOBS, seed=seed):
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    sim.run()
    rm.executor.assert_quiescent()
    return installs, rm.resilience_state()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [1, 2])
def test_standing_base_installs_what_a_fresh_base_would(scenario, seed, monkeypatch):
    config = SCENARIOS[scenario]
    with monkeypatch.context() as m:
        extract = mrcp_rm.extract_assignments
        m.setattr(
            mrcp_rm,
            "extract_assignments",
            lambda formulation, solution, running, resources, base: extract(
                formulation, solution, running, resources
            ),
        )
        fresh = run(config, seed)

    synced = []
    sync = FrozenBase.sync

    def checked_sync(base, frozen):
        sync(base, frozen)
        assert base.live.keys() == {a.task.id for a in frozen}
        for a in frozen:
            assert base.live[a.task.id] is a and base._booked[a.task.id][1] == a.end
        assert index_state(base) == rebuilt_index(base)
        synced.append(len(frozen))

    monkeypatch.setattr(FrozenBase, "sync", checked_sync)
    standing = run(config, seed)
    assert synced and standing[0] and standing == fresh
