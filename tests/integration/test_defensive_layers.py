"""Defensive layers: every internal safety net actually fires.

The stack has four independent safety nets -- the CP solution checker, the
schedule validator inside MRCP-RM, the executor's slot-occupancy asserts,
and the metrics collector's double-event guards.  These tests corrupt one
component at a time and assert the right net catches it (rather than the
corruption propagating into silently-wrong results).

Runtime fault *injection* (task failures, stragglers, outages) lives in
``tests/integration/test_fault_injection.py``; this module is about
catching internal bugs, not simulating external failures.
"""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.core.executor import ScheduledExecutor
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.cp.solver import CpSolver, SolverParams
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload import make_uniform_cluster
from repro.workload.entities import Resource

from tests.conftest import make_job, two_job_single_machine_model


def _rm(resources=None, **cfg_kw):
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        resources or make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(solver=SolverParams(time_limit=0.2), **cfg_kw),
        metrics,
    )
    return sim, metrics, rm


def test_corrupted_matchmaking_caught_by_validator():
    """A decomposition that drops every task onto slot 0 of resource 0 must
    be rejected before it reaches the executor."""
    import repro.core.invocation as M

    sim, metrics, rm = _rm()

    def broken_decompose(movable, frozen, resources, base=None):
        return list(frozen) + [
            TaskAssignment(task, 0, 0, start) for task, start in movable
        ]

    original = M.decompose_combined_schedule
    M.decompose_combined_schedule = broken_decompose
    try:
        job = make_job(0, (5, 5), deadline=100)  # two parallel maps
        sim.schedule_at(0, lambda: rm.submit(job))
        with pytest.raises(SchedulingError, match="invalid schedule"):
            sim.run()
    finally:
        M.decompose_combined_schedule = original


def test_schedule_validation_has_no_off_switch():
    with pytest.raises(TypeError):
        MrcpRmConfig(validate=False)


@pytest.mark.slow
def test_corrupted_solver_solution_caught_by_cp_checker():
    """A solver whose 'solution' overlaps tasks trips the CP-level
    assertion before MRCP-RM ever sees it."""
    from repro.cp import heuristics as H

    m = two_job_single_machine_model()

    def overlapping_schedule(model, order="edf", preplaced=None):
        from repro.cp.solution import Solution

        sol = Solution(starts={iv: 0 for iv in model.intervals})
        sol.objective = 0  # a lie on two counts
        return sol

    original = H.list_schedule
    # Patch the solver's imported reference.
    import repro.cp.solver as S

    orig_best = S.best_warm_start
    S.best_warm_start = lambda model, orders: overlapping_schedule(model)
    try:
        # the checker discards the corrupt warm start (there is no switch
        # to stop it) and the search still produces a correct answer
        result = CpSolver().solve(m, time_limit=2.0, profile=True)
        assert result.profile.warm_start_objective is None
        assert result.profile.solved_by != "warm_start"
        assert result.objective == 1
        from repro.cp.checker import check_solution

        assert check_solution(m, result.solution) == []
    finally:
        S.best_warm_start = orig_best
        H.list_schedule = original


def test_executor_catches_overlapping_manual_install():
    sim = Simulator()
    ex = ScheduledExecutor(sim, [Resource(0, 1, 1)])
    job = make_job(0, (5, 5))
    ex.register_job(job)
    ex.install([
        TaskAssignment(job.map_tasks[0], 0, 0, 0),
        TaskAssignment(job.map_tasks[1], 0, 0, 2),
    ])
    with pytest.raises(SchedulingError, match="double-booked"):
        sim.run()


class _DeadSolver:
    """A solver stub that never finds a solution."""

    def solve(self, model, hint=None, **kw):
        from repro.cp.solution import SolveResult, SolveStatus, SearchStats

        return SolveResult(SolveStatus.UNKNOWN, None, SearchStats())

    def solve_direct(self, attempt, hinted=False, **kw):
        return None  # its warm start closes nothing either


def test_solver_failure_surfaces_as_scheduling_error(monkeypatch):
    """When the CP solve and the EDF list schedule both come back empty, the
    invocation raises (Table 2 line 24) instead of dropping the job on the
    floor, with the failure's own description."""
    import repro.core.invocation as invocation

    monkeypatch.setattr(invocation, "list_schedule", lambda model, order: None)
    sim, metrics, rm = _rm()
    rm._solver = _DeadSolver()
    job = make_job(0, (5,), deadline=50)
    sim.schedule_at(0, lambda: rm.submit(job))
    with pytest.raises(SchedulingError) as exc:
        sim.run()
    dead = invocation.InvocationOutcome(None, result=_DeadSolver().solve(None))
    assert str(exc.value) == dead.describe_failure(0, [job], 0)
    assert "CP solver returned unknown at t=0" in str(exc.value)


def test_solver_failure_degrades_to_heuristic_by_default():
    """The default config survives a dead solver: the EDF list schedule
    takes over and the degradation is visible in ``fallback_solves``."""
    sim, metrics, rm = _rm()
    rm._solver = _DeadSolver()
    sim.schedule_at(0, lambda: rm.submit(make_job(0, (5,), deadline=50)))
    sim.run()
    rm.executor.assert_quiescent()
    result = metrics.finalize()
    assert result.jobs_completed == 1
    assert result.fallback_solves > 0
    assert "fallback_solves" in result.as_dict()


def test_metrics_double_completion_guard():
    metrics = MetricsCollector()
    job = make_job(0, (5,))
    metrics.job_arrived(job)
    metrics.job_completed(job, 10)
    with pytest.raises(ValueError, match="completed twice"):
        metrics.job_completed(job, 11)


def test_resubmitting_a_job_is_rejected():
    sim, metrics, rm = _rm()
    job = make_job(0, (5,), deadline=100)
    sim.schedule_at(0, lambda: rm.submit(job))
    sim.schedule_at(1, lambda: rm.submit(job))
    with pytest.raises(ValueError, match="arrived twice"):
        sim.run()


def test_workload_with_impossible_frozen_state_is_infeasible():
    """Frozen tasks overlapping beyond capacity: the CP root propagation
    proves infeasibility and the solver reports it (no silent repair)."""
    from repro.core.formulation import build_model

    job = make_job(0, (10, 10), deadline=100)
    running = [
        TaskAssignment(job.map_tasks[0], 0, 0, start=0),
        TaskAssignment(job.map_tasks[1], 0, 0, start=5),  # same slot overlap
    ]
    result = build_model([job], [Resource(0, 1, 1)], now=6, running=running)
    solve = CpSolver().solve(result.model, time_limit=1.0)
    assert not solve.status.has_solution
