"""Solution hints: the previous plan seeds the next solve."""

import pytest

from repro.cp import CpModel, CpSolver
from repro.cp.checker import check_solution
from repro.cp.heuristics import list_schedule

from tests.conftest import two_job_single_machine_model


def _simple_model():
    m = CpModel(horizon=100)
    a = m.interval_var(length=10, name="a")
    b = m.interval_var(length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    la = m.add_deadline_indicator([a], deadline=50)
    lb = m.add_deadline_indicator([b], deadline=50)
    m.add_group("ja", [a], deadline=50)
    m.add_group("jb", [b], deadline=50)
    m.minimize_sum([la, lb])
    m.engine()
    return m, a, b


def test_preplaced_starts_respected():
    m, a, b = _simple_model()
    sol = list_schedule(m, "edf", preplaced={a: 30})
    assert sol is not None
    assert sol.starts[a] == 30
    assert check_solution(m, sol) == []


def test_preplaced_conflict_aborts():
    m, a, b = _simple_model()
    # both at the same instant on a unit resource: impossible
    assert list_schedule(m, "edf", preplaced={a: 0, b: 0}) is None


def test_preplaced_outside_window_aborts():
    m, a, b = _simple_model()
    assert list_schedule(m, "edf", preplaced={a: 95}) is None  # lst is 90


def test_hint_used_by_solver():
    m, a, b = _simple_model()
    result = CpSolver().solve(m, hint={a: 20, b: 40}, time_limit=1.0)
    assert result.objective == 0
    # the hint was feasible and optimal, so it should be adopted verbatim
    assert result.solution.starts[a] == 20
    assert result.solution.starts[b] == 40


def test_accepted_hint_checked_exactly_once(monkeypatch):
    """The hint is checked on the way in; the warm-start gate does not
    check the very same solution a second time."""
    import repro.cp.solver as S

    checked = []
    real = S.check_solution

    def counting(model, solution):
        checked.append(solution)
        return real(model, solution)

    monkeypatch.setattr(S, "check_solution", counting)
    m, a, b = _simple_model()
    result = CpSolver().solve(m, hint={a: 20, b: 40}, time_limit=1.0)
    assert result.objective == 0
    assert checked == [result.solution]


def test_infeasible_hint_silently_dropped():
    m, a, b = _simple_model()
    result = CpSolver().solve(m, hint={a: 0, b: 0}, time_limit=1.0)
    assert result.objective == 0  # fell back to the plain warm start
    assert check_solution(m, result.solution) == []


@pytest.mark.slow
def test_suboptimal_hint_improved_by_orders():
    # hint schedules both late; the plain EDF warm start finds 1 late
    m = two_job_single_machine_model()
    a, b = m.intervals
    result = CpSolver().solve(m, hint={a: 50, b: 70}, time_limit=2.0)
    assert result.objective == 1


def test_hint_respects_barrier():
    m = CpModel(horizon=100)
    mp = m.interval_var(length=5, name="mp")
    rd = m.interval_var(length=5, name="rd")
    m.add_cumulative([mp], capacity=1)
    m.add_cumulative([rd], capacity=1)
    m.add_barrier([mp], [rd])
    late = m.add_deadline_indicator([rd], deadline=60)
    m.add_group("j", [mp], [rd], deadline=60)
    m.minimize_sum([late])
    m.engine()
    # hint violating the barrier is rejected by the checker fallback
    result = CpSolver().solve(m, hint={mp: 10, rd: 0}, time_limit=1.0)
    assert result.status.has_solution
    sol = result.solution
    assert sol.starts[rd] >= sol.starts[mp] + 5


def test_preplaced_joint_mode_picks_resource():
    m = CpModel(horizon=100)
    t1 = m.interval_var(length=10, name="t1")
    t2 = m.interval_var(length=10, name="t2")
    pools = {0: [], 1: []}
    for t in (t1, t2):
        opts = []
        for rid in (0, 1):
            o = m.interval_var(length=10, name=f"{t.name}@r{rid}", optional=True)
            pools[rid].append(o)
            opts.append(o)
        m.add_alternative(t, opts)
    m.add_cumulative(pools[0], capacity=1)
    m.add_cumulative(pools[1], capacity=1)
    m.add_group("j1", [t1])
    m.add_group("j2", [t2])
    m.engine()
    sol = list_schedule(m, "edf", preplaced={t1: 5, t2: 5})
    assert sol is not None
    assert sol.starts[t1] == sol.starts[t2] == 5
    # simultaneous hints force distinct resources
    r1 = sol.choices[t1].name.split("@")[1]
    r2 = sol.choices[t2].name.split("@")[1]
    assert r1 != r2
    assert check_solution(m, sol) == []


def test_mrcp_rm_plans_stay_stable_with_hints():
    """With hints, an arrival that fits around the old plan should not
    reshuffle already-planned start times."""
    from repro.core import MrcpRm, MrcpRmConfig
    from repro.cp.solver import SolverParams
    from repro.metrics import MetricsCollector
    from repro.sim import Simulator
    from repro.workload import make_uniform_cluster
    from tests.conftest import make_job

    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(use_hints=True, solver=SolverParams(time_limit=0.3)),
        metrics,
    )
    j1 = make_job(0, (10, 10, 10), deadline=1000)
    j2 = make_job(1, (5,), arrival=2, earliest_start=2, deadline=1000)
    sim.schedule_at(0, lambda: rm.submit(j1))
    sim.run(until=1)
    plan_before = {
        a.task.id: a.start for a in rm.executor.planned_unstarted()
    }
    sim.schedule_at(2, lambda: rm.submit(j2))
    sim.run()
    rm.executor.assert_quiescent()
    result = metrics.finalize()
    assert result.jobs_completed == 2
    assert result.late_jobs == 0
