"""Reified deadline-miss indicator (Table 1, constraint 4).

``N_j = 1`` iff the job's latest-finishing last-stage task completes after the
deadline.  The paper states the constraint as a one-directional implication
(late => ``N_j = 1``); we propagate the full reification because the reverse
direction (``N_j = 0`` => every last-stage task ends by the deadline) is what
gives branch-and-bound its pruning power: when the objective cut forces an
indicator to 0, the job's tasks immediately acquire due dates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.cp.domain import FIX_EVENT, MAX_EVENT, MIN_EVENT
from repro.cp.errors import Infeasible
from repro.cp.propagators.base import Propagator
from repro.cp.variables import BoolVar, IntervalVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine


class DeadlineIndicatorPropagator(Propagator):
    """``indicator = (max(task.end for task in tasks) > deadline)``.

    ``tasks`` are the job's last-stage intervals -- its reduce tasks, or its
    map tasks for map-only jobs (job types 1, 2, 4, 5, 7, 10 of the Facebook
    workload have no reduces).  They must be mandatory intervals.
    """

    __slots__ = ("tasks", "deadline", "indicator")

    def __init__(
        self,
        tasks: List[IntervalVar],
        deadline: int,
        indicator: BoolVar,
        name: str = "",
    ) -> None:
        super().__init__(name or f"late({indicator.name})")
        if not tasks:
            raise ValueError("deadline indicator needs at least one task")
        self.tasks = list(tasks)
        self.deadline = int(deadline)
        self.indicator = indicator

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        # The reverse direction only triggers once the indicator is decided.
        yield self.indicator.domain, FIX_EVENT, None
        for iv in self.tasks:
            yield iv.start, MIN_EVENT | MAX_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        d = self.deadline
        indicator = self.indicator.domain
        if indicator._min != indicator._max:
            if max(iv.start._min + iv.length for iv in self.tasks) > d:
                # The job cannot finish on time in any extension of this node.
                self.indicator.set_true(engine)
            elif max(iv.start._max + iv.length for iv in self.tasks) <= d:
                # The job is on time in every extension.
                self.indicator.set_false(engine)
            else:
                return
        # The indicator is decided: the completion bounds can only agree
        # with it or contradict it, and a contradiction fails below too.
        if indicator._max == 0:
            # On-time: every last-stage task must end by the deadline.
            for iv in self.tasks:
                iv.set_end_max(d, engine)
            return
        # Late: at least one task must end after the deadline.
        can_be_late = None
        for iv in self.tasks:
            if iv.lct > d:
                if can_be_late is not None:
                    return  # two candidates: nothing to infer
                can_be_late = iv
        if can_be_late is None:
            raise Infeasible(
                f"{self.name}: indicator forced true but no task "
                f"can end after {d}"
            )
        can_be_late.set_end_min(d + 1, engine)
