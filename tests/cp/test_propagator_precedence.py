"""Barrier propagation (a pairwise precedence is a one-to-one barrier)."""

import pytest

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.propagators.precedence import BarrierPropagator
from repro.cp.variables import IntervalVar


def _setup(props):
    eng = Engine()
    for p in props:
        eng.register(p)
    eng.seal()
    eng.propagate()
    return eng


def test_barrier_forward_propagation():
    m1 = IntervalVar(0, 50, 10, "m1")
    m2 = IntervalVar(5, 50, 3, "m2")
    r1 = IntervalVar(0, 50, 4, "r1")
    _setup([BarrierPropagator([m1, m2], [r1])])
    # latest finishing map ect = max(0+10, 5+3) = 10
    assert r1.est == 10


def test_barrier_backward_propagation():
    m1 = IntervalVar(0, 50, 10, "m1")
    r1 = IntervalVar(0, 20, 4, "r1")
    _setup([BarrierPropagator([m1], [r1])])
    # r1 must start by 20 -> m1 must end by 20 -> m1.lst = 10
    assert m1.lst == 10


def test_barrier_iterates_to_fixpoint():
    eng = Engine()
    m1 = IntervalVar(0, 100, 10, "m1")
    r1 = IntervalVar(0, 100, 5, "r1")
    r2 = IntervalVar(0, 100, 5, "r2")
    eng.register(BarrierPropagator([m1], [r1]))
    eng.register(BarrierPropagator([r1], [r2]))
    eng.seal()
    m1.set_start_min(20, eng)
    eng.propagate()
    assert r1.est == 30
    assert r2.est == 35


def test_barrier_infeasible():
    m1 = IntervalVar(10, 10, 10, "m1")  # ends at 20
    r1 = IntervalVar(0, 15, 4, "r1")  # must start by 15 < 20
    with pytest.raises(Infeasible):
        _setup([BarrierPropagator([m1], [r1])])


def test_empty_sides_are_noops():
    m1 = IntervalVar(0, 50, 10, "m1")
    _setup([BarrierPropagator([m1], [])])
    _setup([BarrierPropagator([], [m1])])
    assert m1.est == 0 and m1.lst == 50


def test_end_before_start_with_delay():
    a = IntervalVar(0, 50, 10, "a")
    b = IntervalVar(0, 50, 5, "b")
    _setup([BarrierPropagator([a], [b], delay=3)])
    assert b.est == 13
    assert a.lst == 37  # a.end <= b.lst - delay = 50 - 3 = 47 -> lst = 37
