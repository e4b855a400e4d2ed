"""IntervalVar and BoolVar semantics."""

import pytest

from repro.cp.errors import Infeasible, ModelError
from repro.cp.trail import Trail
from repro.cp.variables import BoolVar, IntervalVar


class _Engine:
    def __init__(self):
        self.trail = Trail()

    def wake(self, watchers):
        pass


def test_interval_time_accessors():
    iv = IntervalVar(2, 8, 5, name="t")
    assert iv.est == 2 and iv.lst == 8
    assert iv.ect == 7 and iv.lct == 13
    assert not iv.start.is_fixed


def test_negative_length_rejected():
    with pytest.raises(ModelError):
        IntervalVar(0, 5, -1)


def test_empty_window_rejected():
    with pytest.raises(ModelError):
        IntervalVar(6, 5, 1)


def test_compulsory_part():
    # The compulsory part is [lst, ect), non-empty iff lst < ect.
    iv = IntervalVar(4, 6, 5)
    assert (iv.lst, iv.ect) == (6, 9)
    iv2 = IntervalVar(0, 6, 5)
    assert (iv2.lst, iv2.ect) == (6, 5)  # empty


def test_mandatory_interval_presence():
    iv = IntervalVar(0, 5, 3)
    assert not iv.is_optional
    assert iv.is_present
    assert not iv.is_absent


def test_optional_interval_presence_lifecycle():
    eng = _Engine()
    iv = IntervalVar(0, 5, 3, optional=True)
    assert iv.is_optional
    assert not iv.is_present and not iv.is_absent
    iv.set_present(eng)
    assert iv.is_present and not iv.is_absent


def test_optional_interval_absent():
    eng = _Engine()
    iv = IntervalVar(0, 5, 3, optional=True)
    iv.set_absent(eng)
    assert iv.is_absent


def test_mandatory_cannot_be_absent():
    eng = _Engine()
    iv = IntervalVar(0, 5, 3)
    with pytest.raises(Infeasible):
        iv.set_absent(eng)


def test_end_bound_setters():
    eng = _Engine()
    iv = IntervalVar(0, 10, 4)
    iv.set_end_max(8, eng)
    assert iv.lst == 4
    iv.set_end_min(6, eng)
    assert iv.est == 2


def test_fix_start():
    eng = _Engine()
    iv = IntervalVar(0, 10, 4)
    iv.fix_start(3, eng)
    assert iv.start.is_fixed and iv.est == 3 and iv.ect == 7


def test_boolvar():
    eng = _Engine()
    b = BoolVar("b")
    assert not b.is_fixed
    b.set_true(eng)
    assert b.is_fixed and b.value == 1
    with pytest.raises(Infeasible):
        b.set_false(eng)


def test_payload_passthrough():
    marker = object()
    iv = IntervalVar(0, 5, 1, payload=marker)
    assert iv.payload is marker
