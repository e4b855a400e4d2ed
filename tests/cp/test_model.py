"""CpModel building and compilation."""

import pytest

from repro.cp import CpModel
from repro.cp.errors import ModelError


def test_interval_defaults_to_horizon_window():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=10)
    assert iv.est == 0
    assert iv.lst == 90


def test_horizon_too_small_rejected():
    m = CpModel(horizon=5)
    with pytest.raises(ModelError):
        m.interval_var(length=10)


def test_invalid_horizon_rejected():
    with pytest.raises(ModelError):
        CpModel(horizon=0)


def test_fixed_interval():
    m = CpModel(horizon=100)
    iv = m.fixed_interval(start=7, length=3)
    assert iv.est == iv.lst == 7


def test_unique_names():
    m = CpModel(horizon=100)
    a = m.interval_var(length=1, name="t")
    b = m.interval_var(length=1, name="t")
    assert a.name != b.name


def test_demand_exceeding_capacity_rejected_for_mandatory():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=5, demand=3)
    with pytest.raises(ModelError):
        m.add_cumulative([iv], capacity=2)


def test_demand_exceeding_capacity_allowed_for_optional():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=5, demand=3, optional=True)
    m.add_cumulative([iv], capacity=2)  # the option can simply stay absent


def test_empty_barrier_sides_skipped():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=5)
    assert m.add_barrier([], [iv]) is None
    assert m.add_barrier([iv], []) is None
    assert not m.barriers


def test_indicator_requires_tasks():
    m = CpModel(horizon=100)
    with pytest.raises(ModelError):
        m.add_deadline_indicator([], deadline=10)


def test_engine_compiles_once():
    m = CpModel(horizon=100)
    m.interval_var(length=5)
    e1 = m.engine()
    e2 = m.engine()
    assert e1 is e2


def test_no_new_constraints_after_compile():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=5)
    m.engine()
    with pytest.raises(ModelError):
        m.interval_var(length=3)
    with pytest.raises(ModelError):
        m.add_cumulative([iv], capacity=1)


def test_original_windows_captured():
    m = CpModel(horizon=100)
    iv = m.interval_var(length=5, est=3)
    m.engine()
    assert m.original_windows[iv] == (3, 95)


def test_group_properties():
    m = CpModel(horizon=100)
    a = m.interval_var(length=5)
    b = m.interval_var(length=7)
    g = m.add_group("j", [a], [b], release=2, deadline=30)
    assert g.intervals == [a, b]
    assert g.total_length == 12
    assert g.laxity() == 30 - 2 - 12


def test_group_without_deadline_has_infinite_laxity():
    m = CpModel(horizon=100)
    a = m.interval_var(length=5)
    g = m.add_group("j", [a])
    assert g.laxity() == float("inf")
