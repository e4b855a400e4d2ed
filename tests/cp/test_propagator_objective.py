"""Branch-and-bound objective cut."""

import pytest

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.propagators.objective import SumBoolBoundPropagator
from repro.cp.variables import BoolVar


def _setup(k):
    eng = Engine()
    bools = [BoolVar(f"b{i}") for i in range(k)]
    prop = SumBoolBoundPropagator(bools)
    eng.register(prop)
    eng.objective_propagator = prop
    eng.seal()
    return eng, bools, prop


def test_no_bound_no_propagation():
    eng, bools, _ = _setup(3)
    eng.propagate()
    assert all(not b.is_fixed for b in bools)


def test_exceeding_bound_fails():
    eng, bools, _ = _setup(3)
    eng.objective_bound = 1
    bools[0].set_true(eng)
    bools[1].set_true(eng)
    with pytest.raises(Infeasible):
        eng.propagate()


def test_reaching_bound_forces_rest_false():
    eng, bools, _ = _setup(3)
    eng.objective_bound = 1
    bools[0].set_true(eng)
    eng.propagate()
    assert bools[1].is_fixed and bools[1].value == 0
    assert bools[2].is_fixed and bools[2].value == 0


def test_bound_zero_forces_all_false():
    eng, bools, _ = _setup(3)
    eng.on_bound_tightened(0)
    eng.propagate()
    assert all(b.is_fixed and b.value == 0 for b in bools)


def test_lower_bound_counts_only_true_indicators():
    """The cut sums the indicators' lower bounds: a false one adds nothing."""
    eng, bools, _ = _setup(3)
    bools[0].set_true(eng)
    bools[1].set_false(eng)
    eng.objective_bound = 1
    eng.propagate()  # lower bound 1 meets the cut without exceeding it
    assert bools[2].is_fixed and bools[2].value == 0
