"""Precedence propagators.

The MapReduce barrier (Table 1, constraint 3) says every reduce task of a job
starts at or after the completion of the job's latest-finishing map task.
Equivalently, ``map.end <= reduce.start`` for every (map, reduce) pair; the
:class:`BarrierPropagator` enforces bounds consistency on the whole
bipartite structure in O(maps + reduces) per run.

The propagator subscribes event-typed: the forward pass consumes lower
bounds of the predecessor side (MIN events) and the backward pass upper
bounds of the successor side (MAX events), so e.g. tightening a map task's
*due date* never re-runs the barrier.  Every precedence the planner builds
is a barrier -- a workflow edge is one with a transfer ``delay`` -- and a
pairwise precedence is a one-to-one barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.cp.domain import MAX_EVENT, MIN_EVENT
from repro.cp.propagators.base import Propagator
from repro.cp.variables import IntervalVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine


class BarrierPropagator(Propagator):
    """All of ``second`` start after all of ``first`` complete (+ ``delay``).

    ``delay`` models a data-transfer/communication gap between the stages
    (zero for the paper's MapReduce barrier, whose shuffle time is folded
    into the task execution times; positive for workflow edges that ship
    intermediate data across the network).

    Intervals on both sides must be mandatory (the paper's master task
    intervals always are; only the per-resource copies are optional).
    """

    __slots__ = ("first", "second", "delay")

    def __init__(
        self,
        first: List[IntervalVar],
        second: List[IntervalVar],
        name: str = "",
        delay: int = 0,
    ) -> None:
        super().__init__(name or "barrier")
        if delay < 0:
            raise ValueError(f"barrier delay must be non-negative, got {delay}")
        self.first = list(first)
        self.second = list(second)
        self.delay = int(delay)

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        for iv in self.first:
            yield iv.start, MIN_EVENT, None
        for iv in self.second:
            yield iv.start, MAX_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        if not self.first or not self.second:
            return
        # Forward: no second-stage task may start before every first-stage
        # task can have completed (plus the transfer delay).
        barrier_min = (
            max(iv.start._min + iv.length for iv in self.first) + self.delay
        )
        for iv in self.second:
            iv.start.set_min(barrier_min, engine)
        # Backward: every first-stage task must be able to complete before
        # the latest moment any second-stage task could still start.
        barrier_max = min(iv.start._max for iv in self.second) - self.delay
        for iv in self.first:
            iv.start.set_max(barrier_max - iv.length, engine)
