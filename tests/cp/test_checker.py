"""Solution checker: each violation class is detected."""

from repro.cp import CpModel
from repro.cp.checker import check_solution
from repro.cp.solution import Solution


def _simple_model():
    m = CpModel(horizon=100)
    a = m.interval_var(length=10, est=5, name="a")
    b = m.interval_var(length=10, name="b")
    m.add_cumulative([a, b], capacity=1)
    m.engine()
    return m, a, b


def test_valid_solution_passes():
    m, a, b = _simple_model()
    sol = Solution(starts={a: 5, b: 15})
    assert check_solution(m, sol) == []


def test_missing_start_detected():
    m, a, b = _simple_model()
    sol = Solution(starts={a: 5})
    assert any("missing start" in v for v in check_solution(m, sol))


def test_window_violation_detected():
    m, a, b = _simple_model()
    sol = Solution(starts={a: 2, b: 20})  # a before its est=5
    assert any("outside window" in v for v in check_solution(m, sol))


def test_capacity_violation_detected():
    m, a, b = _simple_model()
    sol = Solution(starts={a: 5, b: 8})
    assert any("exceeds capacity" in v for v in check_solution(m, sol))


def test_barrier_violation_detected():
    m = CpModel(horizon=100)
    mp = m.interval_var(length=10, name="map")
    rd = m.interval_var(length=5, name="red")
    m.add_barrier([mp], [rd])
    m.engine()
    sol = Solution(starts={mp: 0, rd: 5})
    assert any("before first stage ends" in v for v in check_solution(m, sol))


def test_precedence_violation_detected():
    # A pairwise precedence is a one-to-one barrier; its delay is checked.
    m = CpModel(horizon=100)
    a = m.interval_var(length=10, name="a")
    b = m.interval_var(length=5, name="b")
    m.add_barrier([a], [b], name="a->b", delay=3)
    m.engine()
    late = check_solution(m, Solution(starts={a: 0, b: 12}))
    assert any(v.startswith("a->b:") and "delay 3" in v for v in late)
    assert check_solution(m, Solution(starts={a: 0, b: 13})) == []


def test_alternative_choice_required():
    m = CpModel(horizon=100)
    t = m.interval_var(length=5, name="t")
    o = m.interval_var(length=5, name="t@0", optional=True)
    m.add_alternative(t, [o])
    m.engine()
    sol = Solution(starts={t: 0})
    assert any("no option chosen" in v for v in check_solution(m, sol))
    sol2 = Solution(starts={t: 0}, choices={t: o})
    assert check_solution(m, sol2) == []


def test_foreign_option_detected():
    m = CpModel(horizon=100)
    t = m.interval_var(length=5, name="t")
    o = m.interval_var(length=5, name="t@0", optional=True)
    other = m.interval_var(length=5, name="x", optional=True)
    m.add_alternative(t, [o])
    m.engine()
    sol = Solution(starts={t: 0}, choices={t: other})
    assert any("not an option" in v for v in check_solution(m, sol))


def test_chosen_options_consume_capacity():
    m = CpModel(horizon=100)
    t1 = m.interval_var(length=10, name="t1")
    t2 = m.interval_var(length=10, name="t2")
    o1 = m.interval_var(length=10, name="t1@0", optional=True)
    o2 = m.interval_var(length=10, name="t2@0", optional=True)
    m.add_alternative(t1, [o1])
    m.add_alternative(t2, [o2])
    m.add_cumulative([o1, o2], capacity=1)
    m.engine()
    overlapping = Solution(starts={t1: 0, t2: 5}, choices={t1: o1, t2: o2})
    assert any("exceeds capacity" in v for v in check_solution(m, overlapping))
    fine = Solution(starts={t1: 0, t2: 10}, choices={t1: o1, t2: o2})
    assert check_solution(m, fine) == []


def test_objective_mismatch_detected():
    m = CpModel(horizon=100)
    a = m.interval_var(length=10, name="a")
    late = m.add_deadline_indicator([a], deadline=5)
    m.minimize_sum([late])
    m.engine()
    sol = Solution(starts={a: 0}, objective=0)  # actually late
    assert any("objective" in v for v in check_solution(m, sol))
