"""Cumulative time-table propagation."""

import pytest

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.propagators.cumulative import CumulativePropagator
from repro.cp.variables import IntervalVar


def _setup(intervals, demands, capacity):
    eng = Engine()
    prop = CumulativePropagator(intervals, demands, capacity)
    eng.register(prop)
    eng.seal()
    return eng, prop


def test_no_propagation_when_slack():
    a = IntervalVar(0, 100, 10, "a")
    b = IntervalVar(0, 100, 10, "b")
    eng, _ = _setup([a, b], [1, 1], 2)
    eng.propagate()
    assert a.est == 0 and b.est == 0


def test_overload_of_compulsory_parts_fails():
    a = IntervalVar(0, 0, 10, "a")  # fixed [0, 10)
    b = IntervalVar(5, 5, 10, "b")  # fixed [5, 15)
    eng, _ = _setup([a, b], [1, 1], 1)
    with pytest.raises(Infeasible):
        eng.propagate()


def test_movable_pushed_past_fixed_block():
    a = IntervalVar(0, 0, 10, "a")  # occupies [0, 10)
    b = IntervalVar(0, 100, 5, "b")
    eng, _ = _setup([a, b], [1, 1], 1)
    eng.propagate()
    assert b.est == 10


def test_movable_pulled_back_from_fixed_block():
    a = IntervalVar(20, 20, 10, "a")  # occupies [20, 30)
    b = IntervalVar(0, 25, 5, "b")  # must not overlap -> start <= 15
    eng, _ = _setup([a, b], [1, 1], 1)
    eng.propagate()
    assert b.lst == 15


def test_demand_aware_filtering():
    a = IntervalVar(0, 0, 10, "a")  # demand 2 of capacity 3
    b = IntervalVar(0, 100, 5, "b")  # demand 2 cannot fit alongside
    c = IntervalVar(0, 100, 5, "c")  # demand 1 can
    eng, _ = _setup([a, b, c], [2, 2, 1], 3)
    eng.propagate()
    assert b.est == 10
    assert c.est == 0


def test_present_task_with_no_room_fails():
    a = IntervalVar(0, 0, 10, "a")
    b = IntervalVar(0, 3, 5, "b")  # window forces overlap with a
    eng, _ = _setup([a, b], [1, 1], 1)
    with pytest.raises(Infeasible):
        eng.propagate()


def test_optional_task_with_no_room_becomes_absent():
    a = IntervalVar(0, 0, 10, "a")
    b = IntervalVar(0, 3, 5, "b", optional=True)
    eng, _ = _setup([a, b], [1, 1], 1)
    eng.propagate()
    assert b.is_absent


def test_absent_optionals_do_not_consume_capacity():
    eng = Engine()
    a = IntervalVar(0, 0, 10, "a", optional=True)
    b = IntervalVar(0, 100, 5, "b")
    prop = CumulativePropagator([a, b], [1, 1], 1)
    eng.register(prop)
    eng.seal()
    a.set_absent(eng)
    eng.propagate()
    assert b.est == 0


def test_undecided_optional_does_not_push_others():
    # An undecided optional has no compulsory part contribution.
    a = IntervalVar(0, 0, 10, "a", optional=True)  # undecided
    b = IntervalVar(0, 100, 5, "b")
    eng, _ = _setup([a, b], [1, 1], 1)
    eng.propagate()
    assert b.est == 0


def test_gap_filling():
    a = IntervalVar(0, 0, 4, "a")  # [0, 4)
    b = IntervalVar(10, 10, 4, "b")  # [10, 14)
    c = IntervalVar(0, 100, 7, "c")  # gap [4, 10) too short for 7
    d = IntervalVar(0, 100, 6, "d")  # exactly fits the gap
    eng, _ = _setup([a, b, c, d], [1, 1, 1, 1], 1)
    eng.propagate()
    assert d.est == 4  # bounds filtering vs the *fixed* profile only
    assert c.est == 14


def test_self_notification_when_compulsory_part_appears():
    # Pushing b past a gives b a compulsory part in a tight window, which in
    # turn must push c.
    a = IntervalVar(0, 0, 10, "a")  # [0, 10)
    b = IntervalVar(0, 12, 8, "b")  # pushed to [10, 12] -> compulsory [12, 18)
    c = IntervalVar(0, 100, 4, "c")
    eng, _ = _setup([a, b, c], [1, 1, 1], 1)
    eng.propagate()
    assert b.est == 10
    assert b.has_compulsory_part
    assert c.est == 18


@pytest.mark.parametrize("seed", range(6))
def test_free_set_tracks_parts_through_push_pop_and_reset(seed):
    """``_free`` is exactly the tasks with no compulsory part in the profile.

    The sweep iterates it in place of every task, so it must follow
    ``_parts`` through sync, trail undo, a failed node and a reset.
    """
    import random

    rng = random.Random(seed)
    ivs = [
        IntervalVar(0, rng.randint(0, 30), rng.randint(1, 8), f"t{i}")
        for i in range(10)
    ]
    ivs.append(IntervalVar(0, 40, 3, "opt", optional=True))
    eng, prop = _setup(ivs, [1] * len(ivs), 4)

    def check():
        assert prop._free == {k for k, p in enumerate(prop._parts) if p is None}

    check()
    sizes = set()
    for _ in range(60):
        op = rng.choice(["fix", "fix", "propagate", "push", "pop", "reset"])
        try:
            if op == "fix":
                iv = rng.choice(ivs)
                iv.fix_start(rng.randint(iv.est, iv.lst), eng)
                eng.propagate()
            elif op == "propagate":
                eng.propagate()
            elif op == "push":
                eng.trail.push_level()
            elif op == "pop" and eng.trail.level > 1:
                eng.trail.pop_level()
                eng.clear_queue()
            elif op == "reset":
                eng.reset()
        except Infeasible:
            pass  # a failed node keeps whatever was synced before the failure
        check()
        sizes.add(len(prop._free))
    assert len(sizes) > 2  # the set did shrink and grow back


def test_capacity_zero_with_tasks_fails():
    a = IntervalVar(0, 0, 5, "a")
    eng, _ = _setup([a], [1], 0)
    with pytest.raises(Infeasible):
        eng.propagate()


def test_mismatched_demands_rejected():
    a = IntervalVar(0, 10, 5, "a")
    with pytest.raises(ValueError):
        CumulativePropagator([a], [1, 2], 1)


def test_inverted_fit_window_raises_explicit_infeasible(monkeypatch):
    """A latest fit before the earliest fit is an internal inconsistency.

    The guard must be a real raise, not an assert: under ``python -O`` an
    assert is stripped and the inverted window would reach ``set_start_max``
    and corrupt the search silently.
    """
    from repro.cp.profile import TimetableProfile

    a = IntervalVar(0, 100, 10, "a")
    eng, _ = _setup([a], [1], 1)
    monkeypatch.setattr(
        TimetableProfile, "fit_bounds", lambda self, *args: (8, 3)
    )
    with pytest.raises(Infeasible, match="inconsistency"):
        eng.propagate()


def test_infeasibility_still_raised_under_dash_O():
    """Smoke test: the failure paths survive assert-stripping (-O)."""
    import os
    import subprocess
    import sys

    script = """
from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.profile import TimetableProfile
from repro.cp.propagators.cumulative import CumulativePropagator
from repro.cp.variables import IntervalVar

assert True is False or True, "asserts must be stripped"  # noqa: PT018
if __debug__:
    raise SystemExit("expected -O mode")

# 1. A genuine wipe-out: two fixed tasks overlap on capacity 1.
a = IntervalVar(0, 0, 10, "a")
b = IntervalVar(5, 5, 10, "b")
eng = Engine()
eng.register(CumulativePropagator([a, b], [1, 1], 1))
eng.seal()
try:
    eng.propagate()
except Infeasible:
    pass
else:
    raise SystemExit("overload not detected under -O")

# 2. The defensive inverted-window guard specifically.
c = IntervalVar(0, 100, 10, "c")
eng2 = Engine()
eng2.register(CumulativePropagator([c], [1], 1))
eng2.seal()
TimetableProfile.fit_bounds = lambda self, *args: (8, 3)
try:
    eng2.propagate()
except Infeasible as exc:
    if "inconsistency" not in str(exc):
        raise SystemExit(f"wrong failure: {exc}")
else:
    raise SystemExit("inverted fit window not detected under -O")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
