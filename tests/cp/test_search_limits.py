"""SearchLimits budgets and brancher corner cases."""

from repro.cp import CpModel
from repro.cp.search import (
    SearchLimits,
    SetTimesBrancher,
    extract_solution,
    tree_search,
)
from repro.cp.solution import SearchStats

from tests.conftest import two_job_single_machine_model


def test_time_limit_checked_periodically():
    limits = SearchLimits.from_budget(time_budget=0.0)
    stats = SearchStats()
    stats.branches = 64  # the & 0x3F == 0 cadence
    assert limits.exceeded(stats)


def test_no_limits_never_exceeded():
    limits = SearchLimits()
    stats = SearchStats()
    stats.branches = 10**6
    stats.fails = 10**6
    assert not limits.exceeded(stats)


def test_brancher_complete_flag():
    m = two_job_single_machine_model()
    assert SetTimesBrancher(m, jump=False).complete
    assert not SetTimesBrancher(m, jump=True).complete


def test_brancher_none_when_all_fixed():
    m = CpModel(horizon=20)
    m.fixed_interval(start=3, length=5, name="f")
    engine = m.engine()
    engine.reset()
    engine.propagate()
    assert SetTimesBrancher(m).choose(engine) is None


def test_extract_solution_reads_fixed_state():
    m = CpModel(horizon=20)
    iv = m.fixed_interval(start=3, length=5, name="f")
    engine = m.engine()
    engine.reset()
    engine.propagate()
    sol = extract_solution(m)
    assert sol.starts[iv] == 3


def test_search_on_empty_model():
    m = CpModel(horizon=10)
    engine = m.engine()
    engine.reset()
    result = tree_search(
        m, engine, SetTimesBrancher(m), SearchLimits.from_budget(time_budget=1.0)
    )
    assert result.best is not None
    assert result.best.starts == {}
