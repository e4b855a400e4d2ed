"""Branch-and-bound cut on the objective ``sum(N_j)``.

The engine carries a (monotonically tightening) ``objective_bound``; this
propagator enforces ``sum(indicators) <= bound``.  Two inferences:

* lower bound of the sum already exceeds the bound -> fail;
* lower bound equals the bound -> every undecided indicator is forced to 0,
  which (through the reified deadline constraints) turns into hard due dates
  for the remaining jobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.cp.domain import MIN_EVENT
from repro.cp.errors import Infeasible
from repro.cp.propagators.base import Propagator
from repro.cp.variables import BoolVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine


class SumBoolBoundPropagator(Propagator):
    """``sum(bools) <= engine.objective_bound`` (no-op while bound is None)."""

    __slots__ = ("bools",)

    def __init__(self, bools: List[BoolVar], name: str = "") -> None:
        super().__init__(name or "objective-cut")
        self.bools = list(bools)

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        # The sum's lower bound only moves when an indicator's min rises;
        # fixing one to 0 (a MAX event) can never trigger new inference.
        for b in self.bools:
            yield b.domain, MIN_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        bound = engine.objective_bound
        if bound is None:
            return
        lb = 0
        for b in self.bools:
            lb += b.domain._min
        if lb > bound:
            raise Infeasible(
                f"{self.name}: objective lower bound {lb} exceeds cut {bound}"
            )
        if lb == bound:
            for b in self.bools:
                if not b.is_fixed:
                    b.set_false(engine)
