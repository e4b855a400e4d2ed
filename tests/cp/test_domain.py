"""IntDomain bounds semantics."""

import pytest

from repro.cp.domain import IntDomain
from repro.cp.errors import Infeasible
from repro.cp.trail import Trail


class _Engine:
    def __init__(self):
        self.trail = Trail()
        self.woken = []

    def wake(self, entries, cause=None):
        self.woken.extend(prop for prop, _token in entries)


def test_initial_bounds():
    d = IntDomain(3, 9)
    assert d.min == 3 and d.max == 9
    assert d.size == 7
    assert not d.is_fixed


def test_empty_initial_domain_raises():
    with pytest.raises(Infeasible):
        IntDomain(5, 4)


def test_set_min_no_op_below_current():
    eng = _Engine()
    d = IntDomain(5, 10)
    assert d.set_min(5, eng) is False
    assert d.set_min(2, eng) is False
    assert d.min == 5


def test_set_min_moves_bound_and_wakes():
    eng = _Engine()
    d = IntDomain(0, 10)
    sentinel = object()
    d.watch(sentinel)
    assert d.set_min(4, eng) is True
    assert d.min == 4
    assert sentinel in eng.woken


def test_set_min_wipeout():
    eng = _Engine()
    d = IntDomain(0, 10)
    with pytest.raises(Infeasible):
        d.set_min(11, eng)


def test_set_max_wipeout():
    eng = _Engine()
    d = IntDomain(5, 10)
    with pytest.raises(Infeasible):
        d.set_max(4, eng)


def test_fix():
    eng = _Engine()
    d = IntDomain(0, 10)
    d.fix(7, eng)
    assert d.is_fixed and d.value == 7


def test_fix_outside_raises():
    eng = _Engine()
    d = IntDomain(0, 10)
    with pytest.raises(Infeasible):
        d.fix(11, eng)


def test_value_of_unfixed_raises():
    d = IntDomain(0, 10)
    with pytest.raises(ValueError):
        _ = d.value


def test_contains():
    d = IntDomain(2, 4)
    assert d.contains(2) and d.contains(4)
    assert not d.contains(1) and not d.contains(5)


def test_repr_forms():
    d = IntDomain(1, 3, name="x")
    assert "x" in repr(d)
    eng = _Engine()
    d.fix(2, eng)
    assert "x=2" == repr(d)
