"""Constraint propagators for the scheduling CP solver.

Each propagator implements one constraint family from the paper's CP
formulation (Table 1):

* :class:`~repro.cp.propagators.precedence.BarrierPropagator` -- constraint
  (3): every reduce task starts after the latest-finishing map task; with
  a transfer delay it is also every workflow edge of the Section VII DAG
  extension.
* :class:`~repro.cp.propagators.cumulative.CumulativePropagator` --
  constraints (5)/(6): per-resource map/reduce slot capacities, via
  time-table (compulsory part) reasoning.
* :class:`~repro.cp.propagators.alternative.AlternativePropagator` --
  constraint (1): each task is placed on exactly one resource, as in OPL's
  ``alternative`` over optional intervals.
* :class:`~repro.cp.propagators.lateness.DeadlineIndicatorPropagator` --
  constraint (4): the reified "job is late" boolean.
* :class:`~repro.cp.propagators.objective.SumBoolBoundPropagator` -- the
  branch-and-bound cut ``sum(N_j) <= incumbent - 1``.
"""

from repro.cp.propagators.base import Propagator
from repro.cp.propagators.precedence import BarrierPropagator
from repro.cp.propagators.cumulative import CumulativePropagator
from repro.cp.propagators.alternative import AlternativePropagator
from repro.cp.propagators.lateness import DeadlineIndicatorPropagator
from repro.cp.propagators.objective import SumBoolBoundPropagator

__all__ = [
    "Propagator",
    "BarrierPropagator",
    "CumulativePropagator",
    "AlternativePropagator",
    "DeadlineIndicatorPropagator",
    "SumBoolBoundPropagator",
]
