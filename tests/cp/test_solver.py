"""CpSolver facade: statuses, budgets, fast paths."""

import inspect
from dataclasses import fields

import pytest

from repro.cp import CpModel, CpSolver, SolveStatus
from repro.cp.checker import check_solution
from repro.cp.search import SearchLimits
from repro.cp.solver import SolverParams

from tests.conftest import two_job_single_machine_model


def test_trivial_feasibility():
    m = CpModel(horizon=50)
    m.interval_var(length=5, name="a")
    result = CpSolver().solve(m, time_limit=2.0)
    assert result.status is SolveStatus.FEASIBLE
    assert result.solution is not None


def test_zero_late_is_optimal_fast_path():
    m = CpModel(horizon=100)
    a = m.interval_var(length=5, name="a")
    late = m.add_deadline_indicator([a], deadline=50)
    m.add_group("j", [a], deadline=50)
    m.add_cumulative([a], capacity=1)
    m.minimize_sum([late])
    result = CpSolver().solve(m, time_limit=2.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 0
    # warm start alone: no tree search was needed
    assert result.stats.branches == 0


def test_provably_late_root_bound_fast_path():
    # the job cannot possibly meet its deadline: root LB = 1 = warm start
    m = CpModel(horizon=100)
    a = m.interval_var(length=30, name="a")
    late = m.add_deadline_indicator([a], deadline=10)
    m.add_group("j", [a], deadline=10)
    m.add_cumulative([a], capacity=1)
    m.minimize_sum([late])
    result = CpSolver().solve(m, time_limit=2.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1
    assert result.stats.branches == 0


@pytest.mark.slow
def test_one_late_instance():
    m = two_job_single_machine_model()
    result = CpSolver().solve(m, time_limit=5.0)
    assert result.status.has_solution
    assert result.objective == 1
    assert check_solution(m, result.solution) == []


def test_infeasible_model():
    m = CpModel(horizon=50)
    a = m.fixed_interval(start=0, length=10, name="a")
    b = m.fixed_interval(start=5, length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    result = CpSolver().solve(m, time_limit=2.0)
    assert result.status is SolveStatus.INFEASIBLE
    assert result.solution is None
    assert not result


@pytest.mark.slow
def test_solution_always_validates():
    m = two_job_single_machine_model()
    result = CpSolver(SolverParams(time_limit=2.0)).solve(m)
    assert check_solution(m, result.solution) == []


def test_param_overrides():
    m = two_job_single_machine_model()
    solver = CpSolver(SolverParams(time_limit=99.0))
    result = solver.solve(m, time_limit=0.5)
    assert result.stats.wall_time < 5.0


def test_no_lns_configuration():
    m = two_job_single_machine_model()
    result = CpSolver().solve(m, time_limit=1.0, use_lns=False)
    assert result.stats.lns_iterations == 0
    assert result.objective == 1


def test_joint_matchmaking_solved():
    m = CpModel(horizon=20)
    tasks, bools = [], []
    pools = {0: [], 1: []}
    for i in range(2):
        t = m.interval_var(length=6, name=f"t{i}")
        opts = []
        for rid in (0, 1):
            o = m.interval_var(length=6, name=f"t{i}@r{rid}", optional=True)
            pools[rid].append(o)
            opts.append(o)
        m.add_alternative(t, opts)
        b = m.add_deadline_indicator([t], deadline=6)
        m.add_group(f"j{i}", [t], deadline=6)
        tasks.append(t)
        bools.append(b)
    m.add_cumulative(pools[0], capacity=1)
    m.add_cumulative(pools[1], capacity=1)
    m.minimize_sum(bools)
    result = CpSolver().solve(m, time_limit=5.0)
    # both meet their deadlines by using different resources
    assert result.objective == 0
    chosen = {result.solution.choices[t].name.split("@")[1] for t in tasks}
    assert chosen == {"r0", "r1"}


@pytest.mark.slow
def test_solver_reusable_across_solves():
    solver = CpSolver(SolverParams(time_limit=2.0))
    for _ in range(2):
        m = two_job_single_machine_model()
        result = solver.solve(m)
        assert result.objective == 1


def test_solver_stack_has_no_off_switches():
    """The surface is pinned: the checks cannot be switched off, nothing
    prints, and a keyword outside these lists is a TypeError."""
    assert [f.name for f in fields(SolverParams)] == [
        "time_limit",
        "tree_fail_limit",
        "warm_start_orders",
        "jump_branching",
        "use_lns",
        "lns",
        "profile",
        "seed",
    ]
    assert [f.name for f in fields(SearchLimits)] == ["deadline", "fail_limit"]
    assert list(inspect.signature(CpModel).parameters) == ["horizon"]
    with pytest.raises(TypeError):
        SolverParams(validate=False)
    with pytest.raises(TypeError):
        SolverParams(log=True)
    with pytest.raises(TypeError):
        CpSolver().solve(CpModel(horizon=10), validate=False)
