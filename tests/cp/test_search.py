"""Tree search: feasibility, branch-and-bound, limits."""

from repro.cp import CpModel
from repro.cp.search import (
    SearchLimits,
    SetTimesBrancher,
    tree_search,
)

from tests.conftest import two_job_single_machine_model


def _search(model, jump=True, **limit_kw):
    engine = model.engine()
    engine.reset()
    brancher = SetTimesBrancher(model, jump=jump)
    limits = SearchLimits.from_budget(**limit_kw)
    return tree_search(model, engine, brancher, limits)


def test_finds_solution_simple():
    m = CpModel(horizon=50)
    a = m.interval_var(length=10, name="a")
    b = m.interval_var(length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    result = _search(m, time_budget=5.0)
    assert result.best is not None
    sa, sb = result.best.starts[a], result.best.starts[b]
    assert abs(sa - sb) >= 10  # no overlap


def test_optimises_to_zero_late():
    m = CpModel(horizon=50)
    a = m.interval_var(length=5, name="a")
    b = m.interval_var(length=5, name="b")
    m.add_cumulative([a, b], capacity=1)
    la = m.add_deadline_indicator([a], deadline=10)
    lb = m.add_deadline_indicator([b], deadline=10)
    m.minimize_sum([la, lb])
    result = _search(m, time_budget=5.0)
    assert result.best.objective == 0


def test_branch_and_bound_improves():
    m = two_job_single_machine_model()
    result = _search(m, time_budget=5.0, fail_limit=50_000)
    # one job must be late; B&B should find exactly one
    assert result.best.objective == 1


def test_complete_mode_proves_optimum():
    m = two_job_single_machine_model(horizon=40)
    result = _search(m, jump=False, time_budget=10.0)
    assert result.best.objective == 1
    assert result.exhausted


def test_fail_limit_respected():
    m = two_job_single_machine_model(horizon=60)
    result = _search(m, fail_limit=3)
    assert result.stats.fails <= 4  # one in-flight failure allowed


def test_respects_barrier_in_solutions():
    m = CpModel(horizon=100)
    maps = [m.interval_var(length=4, name=f"m{i}") for i in range(3)]
    red = m.interval_var(length=6, name="r")
    m.add_cumulative(maps, capacity=2)
    m.add_cumulative([red], capacity=1)
    m.add_barrier(maps, [red])
    result = _search(m, time_budget=5.0)
    sol = result.best
    assert sol is not None
    assert sol.starts[red] >= max(sol.starts[iv] + 4 for iv in maps)


def test_joint_mode_presence_decisions():
    m = CpModel(horizon=30)
    t = m.interval_var(length=5, name="t")
    o1 = m.interval_var(length=5, name="t@1", optional=True)
    o2 = m.interval_var(length=5, name="t@2", optional=True)
    m.add_alternative(t, [o1, o2])
    m.add_cumulative([o1], capacity=1)
    m.add_cumulative([o2], capacity=1)
    result = _search(m, time_budget=5.0)
    sol = result.best
    assert sol is not None
    assert sol.chosen_option(t) in (o1, o2)


def test_frozen_tasks_respected():
    m = CpModel(horizon=100)
    frozen = m.fixed_interval(start=0, length=10, name="frozen")
    a = m.interval_var(length=5, name="a")
    m.add_cumulative([frozen, a], capacity=1)
    result = _search(m, time_budget=5.0)
    assert result.best.starts[frozen] == 0
    assert result.best.starts[a] >= 10


def test_engine_left_reusable_after_search():
    m = two_job_single_machine_model()
    engine = m.engine()
    engine.reset()
    brancher = SetTimesBrancher(m, jump=True)
    r1 = tree_search(m, engine, brancher, SearchLimits.from_budget(time_budget=2.0))
    engine.reset()
    r2 = tree_search(m, engine, brancher, SearchLimits.from_budget(time_budget=2.0))
    assert r1.best.objective == r2.best.objective == 1


def test_root_infeasible_leaves_engine_at_sane_root_state():
    """Root propagation failure must restore the same state as a normal exit.

    Regression: the early return used to leave the trail at the failed
    level with half-propagated infeasible domains, so a subsequent solve
    sharing the engine started from poisoned bounds.
    """
    m = CpModel(horizon=30)
    a = m.fixed_interval(start=0, length=10, name="a")
    b = m.fixed_interval(start=5, length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    engine = m.engine()
    engine.reset()
    brancher = SetTimesBrancher(m, jump=True)
    r1 = tree_search(
        m, engine, brancher, SearchLimits.from_budget(time_budget=2.0)
    )
    assert r1.best is None and r1.exhausted and r1.stats.fails == 1
    # Same root state as the normal exit path: one open root level, empty
    # queues, and a re-run reproduces the identical result.
    assert engine.trail.level == 1
    assert not engine._queue_high and not engine._queue_low
    engine.reset()
    r2 = tree_search(
        m, engine, brancher, SearchLimits.from_budget(time_budget=2.0)
    )
    assert r2.best is None and r2.exhausted and r2.stats.fails == 1


def test_jump_matches_complete_with_absent_alternative_options():
    """Jump dominance must hold on instances where options go absent.

    An absent option's ect is meaningless (its window was squeezed before
    the presence flipped); if the postpone jump ever consumed it, the jump
    tree would skip feasible starts and report a worse objective than the
    exhaustive complete-mode tree.
    """

    def build():
        m = CpModel(horizon=60)
        blocker = m.fixed_interval(start=0, length=40, name="blocker")
        t1 = m.interval_var(length=3, name="t1")
        a1 = m.interval_var(length=3, name="t1@A", optional=True)
        b1 = m.interval_var(length=3, lst=20, name="t1@B", optional=True)
        m.add_alternative(t1, [a1, b1])
        t2 = m.interval_var(length=4, name="t2")
        m.add_cumulative([a1, t2], capacity=1)  # machine A
        m.add_cumulative([blocker, b1], capacity=1)  # machine B (blocked)
        late1 = m.add_deadline_indicator([t1], deadline=6)
        late2 = m.add_deadline_indicator([t2], deadline=6)
        m.minimize_sum([late1, late2])
        return m, t1, a1, b1

    results = {}
    for jump in (True, False):
        m, t1, a1, b1 = build()
        engine = m.engine()
        engine.reset()
        engine.propagate()
        assert b1.is_absent  # the blocked option is ruled out at the root
        engine.reset()
        brancher = SetTimesBrancher(m, jump=jump)
        result = tree_search(
            m, engine, brancher, SearchLimits.from_budget(time_budget=10.0)
        )
        assert result.best is not None
        assert result.best.chosen_option(t1) is a1
        results[jump] = result.best.objective
    assert results[True] == results[False] == 1


def test_search_unwinds_to_the_level_it_was_entered_at():
    """A level the caller holds, and what it fixed there, outlive the search.

    Regression: both exits used to ``pop_all()``, wiping every level above
    the root -- so LNS could not keep its pinned level across a dive.
    """
    # Normal exit.
    m = two_job_single_machine_model()
    engine = m.engine()
    engine.reset()
    engine.propagate()
    pinned, other = m.intervals[0], m.intervals[1]
    engine.trail.push_level()
    pinned.fix_start(pinned.est + 3, engine)
    level, value = engine.trail.level, pinned.est
    brancher = SetTimesBrancher(m, jump=True)
    result = tree_search(m, engine, brancher, SearchLimits.from_budget(fail_limit=50))
    assert result.best is not None and result.best.starts[pinned] == value
    assert engine.trail.level == level
    assert pinned.start.is_fixed and pinned.est == value
    assert not other.start.is_fixed  # the search's own fixes are undone
    assert not engine._queue_high and not engine._queue_low
    engine.trail.pop_level()
    assert not pinned.start.is_fixed

    # Root-infeasible exit: the caller's pin overlaps a frozen task.
    m = CpModel(horizon=30)
    frozen = m.fixed_interval(start=0, length=10, name="frozen")
    a = m.interval_var(length=5, name="a")
    m.add_cumulative([frozen, a], capacity=1)
    engine = m.engine()
    engine.reset()
    engine.trail.push_level()
    a.fix_start(5, engine)
    level = engine.trail.level
    result = tree_search(
        m, engine, SetTimesBrancher(m), SearchLimits.from_budget(fail_limit=50)
    )
    assert result.best is None and result.exhausted and result.stats.fails == 1
    assert engine.trail.level == level
    assert a.start.is_fixed and a.est == 5
    assert not engine._queue_high and not engine._queue_low
