"""Decision variables: booleans and (optional) interval variables.

:class:`IntervalVar` mirrors CP Optimizer's ``dvar interval``: a task with a
fixed processing time whose *start* is the decision, plus -- for the
matchmaking formulation of the paper (Table 1, constraint 1) -- an optional
*presence* status used by the ``alternative`` constraint to pick exactly one
(task, resource) copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cp.domain import FIX_EVENT, IntDomain
from repro.cp.errors import Infeasible, ModelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.engine import Engine
    from repro.cp.propagators.base import Propagator


class BoolVar:
    """A 0/1 decision variable (a thin wrapper over an ``IntDomain``)."""

    __slots__ = ("domain", "name")

    def __init__(self, name: str = "") -> None:
        self.domain = IntDomain(0, 1, name=name)
        self.name = name

    @property
    def is_fixed(self) -> bool:
        return self.domain.is_fixed

    @property
    def value(self) -> int:
        return self.domain.value

    @property
    def can_be_true(self) -> bool:
        return self.domain.max == 1

    @property
    def can_be_false(self) -> bool:
        return self.domain.min == 0

    def set_true(self, engine: "Engine") -> bool:
        """Fix to 1; raises Infeasible when already 0."""
        return self.domain.set_min(1, engine)

    def set_false(self, engine: "Engine") -> bool:
        """Fix to 0; raises Infeasible when already 1."""
        return self.domain.set_max(0, engine)

    def watch(
        self,
        prop: "Propagator",
        events: int = FIX_EVENT,
        token: object = None,
    ) -> None:
        """Subscribe ``prop`` to this literal (by default: decisions only).

        A 0/1 domain has no intermediate bound moves, so :data:`FIX_EVENT`
        alone sees every decision.
        """
        self.domain.watch(prop, events, token)

    def __repr__(self) -> str:
        return repr(self.domain)


#: Presence states for an optional interval.
PRESENT = 1
ABSENT = 0


class IntervalVar:
    """A task of fixed integer ``length`` to be placed on the timeline.

    The decision is the start time, held in :attr:`start`.  The end is derived
    (``end = start + length``); helper accessors keep propagator code close to
    the usual scheduling vocabulary (est/lst/ect/lct).

    An interval may be *optional*: whether it appears in the schedule at all
    is itself a decision, held in :attr:`presence`.  Bounds of an absent
    interval are meaningless and propagators must ignore them.
    """

    __slots__ = ("start", "length", "presence", "demand", "name", "payload")

    def __init__(
        self,
        start_min: int,
        start_max: int,
        length: int,
        name: str = "",
        optional: bool = False,
        demand: int = 1,
        payload: object = None,
    ) -> None:
        if length < 0:
            raise ModelError(f"interval {name!r}: negative length {length}")
        if demand < 0:
            raise ModelError(f"interval {name!r}: negative demand {demand}")
        if start_min > start_max:
            raise ModelError(
                f"interval {name!r}: empty start window [{start_min}, {start_max}]"
            )
        self.start = IntDomain(start_min, start_max, name=f"{name}.start")
        self.length = int(length)
        self.presence: Optional[BoolVar] = (
            BoolVar(name=f"{name}.presence") if optional else None
        )
        self.demand = int(demand)
        self.name = name
        #: Free slot for callers to attach their own object (e.g. a Task).
        self.payload = payload

    # ------------------------------------------------------------- presence
    @property
    def is_optional(self) -> bool:
        return self.presence is not None

    @property
    def is_present(self) -> bool:
        """True when the interval is known to appear in the schedule."""
        return self.presence is None or (
            self.presence.is_fixed and self.presence.value == PRESENT
        )

    @property
    def is_absent(self) -> bool:
        return self.presence is not None and (
            self.presence.is_fixed and self.presence.value == ABSENT
        )

    @property
    def presence_undecided(self) -> bool:
        return self.presence is not None and not self.presence.is_fixed

    def set_present(self, engine: "Engine") -> bool:
        """Commit the optional interval to appear in the schedule."""
        if self.presence is None:
            return False
        return self.presence.set_true(engine)

    def set_absent(self, engine: "Engine") -> bool:
        """Remove the optional interval from the schedule."""
        if self.presence is None:
            raise Infeasible(f"cannot make mandatory interval {self.name!r} absent")
        return self.presence.set_false(engine)

    # ----------------------------------------------------------------- time
    @property
    def est(self) -> int:
        """Earliest start time."""
        return self.start.min

    @property
    def lst(self) -> int:
        """Latest start time."""
        return self.start.max

    @property
    def ect(self) -> int:
        """Earliest completion time."""
        return self.start.min + self.length

    @property
    def lct(self) -> int:
        """Latest completion time."""
        return self.start.max + self.length

    @property
    def start_fixed(self) -> bool:
        return self.start.is_fixed

    @property
    def has_compulsory_part(self) -> bool:
        """True when some execution window is occupied in *every* placement.

        The compulsory part is ``[lst, ect)``; it is non-empty iff lst < ect.
        Only *present* intervals contribute compulsory parts to cumulative
        profiles.
        """
        return self.lst < self.ect

    def set_start_min(self, v: int, engine: "Engine") -> bool:
        """Raise the earliest start (est)."""
        return self.start.set_min(v, engine)

    def set_start_max(self, v: int, engine: "Engine") -> bool:
        """Lower the latest start (lst)."""
        return self.start.set_max(v, engine)

    def set_end_max(self, v: int, engine: "Engine") -> bool:
        """Impose a due date: end <= v."""
        return self.start.set_max(v - self.length, engine)

    def set_end_min(self, v: int, engine: "Engine") -> bool:
        """Impose a minimum completion: end >= v."""
        return self.start.set_min(v - self.length, engine)

    def fix_start(self, v: int, engine: "Engine") -> bool:
        """Assign the start time outright."""
        return self.start.fix(v, engine)

    def __repr__(self) -> str:
        pres = ""
        if self.presence is not None:
            if self.is_present:
                pres = "!"
            elif self.is_absent:
                pres = "×"
            else:
                pres = "?"
        return f"IntervalVar({self.name}{pres} start∈[{self.est},{self.lst}] len={self.length})"
