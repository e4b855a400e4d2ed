"""Work pin: a seeded solve of the contended geometry, counted, not timed.

The search tree (branches, fails) and the cumulative's effort (runs,
prunes) are exact on every machine, because the fail limit binds and LNS is
off.  ``TimetableProfile.fit_bounds`` calls count the sweeps the cumulative
pays for; a kernel change that brings back sweeps which cannot prune raises
that count without moving the tree, so this pin fails before any timing
would show it.

A change that moves a value on purpose re-pins it here and says why.
History of ``fit_bounds``: 31 112 calls while stale dirty tokens (from
popped or failed subtrees, and from the cumulative's own part-less prunes)
were still swept; 23 490 since they are dropped.
"""

from repro.core.formulation import build_model
from repro.cp.profile import TimetableProfile
from repro.cp.solver import CpSolver, SolverParams
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

PINNED = {
    "branches": 388,
    "fails": 200,
    "cumulative_runs": 593,
    "cumulative_prunes": 12570,
    "fit_bounds_calls": 23490,
}


def test_contended_solve_does_pinned_work(monkeypatch):
    calls = [0]
    fit_bounds = TimetableProfile.fit_bounds

    def counted(self, *args):
        calls[0] += 1
        return fit_bounds(self, *args)

    monkeypatch.setattr(TimetableProfile, "fit_bounds", counted)
    # Small jobs, no advance reservations, tight deadlines: the geometry of
    # the contended benchmark workloads, as one closed 30-job batch.
    params = SyntheticWorkloadParams(
        num_jobs=30,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        e_max=20,
        ar_probability=0.0,
        deadline_multiplier_max=1.5,
        arrival_rate=1.0,
        total_map_slots=20,
        total_reduce_slots=20,
    )
    jobs = generate_synthetic_workload(params, seed=5)
    model = build_model(jobs, make_uniform_cluster(10, 2, 2), now=0).model
    solver = CpSolver(
        SolverParams(time_limit=30.0, tree_fail_limit=200, use_lns=False, profile=True)
    )
    result = solver.solve(model)
    cumulative = result.profile.propagators["CumulativePropagator"]
    got = {
        "branches": result.stats.branches,
        "fails": result.stats.fails,
        "cumulative_runs": cumulative["runs"],
        "cumulative_prunes": cumulative["prunes"],
        "fit_bounds_calls": calls[0],
    }
    assert got == PINNED
