"""Trailed integer domains with bounds consistency and change events.

Scheduling propagators (cumulative time-tabling, precedences, deadlines)
reason almost exclusively about variable *bounds*, so domains are represented
by a ``[min, max]`` interval rather than a bit-set.  This is the same design
choice CP Optimizer makes for its temporal network.

Every tightening goes through :meth:`IntDomain.set_min` / :meth:`set_max` /
:meth:`fix`, which

1. check for wipe-out and raise :class:`~repro.cp.errors.Infeasible`,
2. save the previous bounds on the engine's trail (once per search node), and
3. wake the propagators subscribed to the *kind* of change that happened.

The one write that goes the other way is :meth:`IntDomain.widen`, for a
caller that lifts a decision it made in a trail level it still holds (LNS
relaxing a neighbourhood): trailed the same way, it wakes the subscribers of
every event kind at once.

Change events
-------------
Wake-ups are event-typed so a propagator only re-runs for changes it can
actually use:

* :data:`MIN_EVENT` -- the lower bound increased,
* :data:`MAX_EVENT` -- the upper bound decreased,
* :data:`FIX_EVENT` -- the domain became a singleton (fired *in addition to*
  the bound event that caused it; subscribe to FIX alone for presence/boolean
  literals whose intermediate bound moves are irrelevant).

Subscriptions are ``(propagator, token)`` pairs held in per-event lists
(:attr:`IntDomain.on_min` / :attr:`on_max` / :attr:`on_fix`).  A non-``None``
token is added to the propagator's dirty set on every wake -- including
self-inflicted ones -- which is how :class:`CumulativePropagator` learns
*which* intervals changed without rescanning all of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cp.errors import Infeasible

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.cp.engine import Engine
    from repro.cp.propagators.base import Propagator

#: Lower bound increased.
MIN_EVENT = 1
#: Upper bound decreased.
MAX_EVENT = 2
#: Domain became a singleton (fired in addition to the MIN/MAX event).
FIX_EVENT = 4
#: Convenience mask: subscribe to every event kind.
ANY_EVENT = MIN_EVENT | MAX_EVENT | FIX_EVENT


class IntDomain:
    """A backtrackable integer interval ``[min, max]``."""

    __slots__ = ("_min", "_max", "_stamp", "on_min", "on_max", "on_fix", "name")

    def __init__(self, lo: int, hi: int, name: str = "") -> None:
        if lo > hi:
            raise Infeasible(f"empty initial domain [{lo}, {hi}] for {name!r}")
        self._min = int(lo)
        self._max = int(hi)
        self._stamp = 0
        # The three per-event subscription lists are created lazily by
        # :meth:`watch` -- models build thousands of domains and most carry
        # only one or two subscriptions, so eagerly allocating three lists
        # per domain dominated model-build time.
        #: ``(propagator, token)`` pairs woken when the lower bound rises.
        self.on_min: Optional[List[Tuple["Propagator", object]]] = None
        #: ``(propagator, token)`` pairs woken when the upper bound drops.
        self.on_max: Optional[List[Tuple["Propagator", object]]] = None
        #: ``(propagator, token)`` pairs woken when the domain becomes fixed.
        self.on_fix: Optional[List[Tuple["Propagator", object]]] = None
        self.name = name

    # ------------------------------------------------------------------ read
    @property
    def min(self) -> int:
        return self._min

    @property
    def max(self) -> int:
        return self._max

    @property
    def is_fixed(self) -> bool:
        return self._min == self._max

    @property
    def value(self) -> int:
        """The assigned value; only valid when :attr:`is_fixed` is true."""
        if self._min != self._max:
            raise ValueError(f"domain {self!r} is not fixed")
        return self._min

    @property
    def size(self) -> int:
        return self._max - self._min + 1

    # ---------------------------------------------------------- subscription
    def watch(
        self,
        prop: "Propagator",
        events: int = ANY_EVENT,
        token: object = None,
    ) -> None:
        """Subscribe ``prop`` to the event kinds in the ``events`` mask.

        ``token`` (when not ``None``) is added to ``prop._dirty`` on every
        wake from this domain, letting incremental propagators map the wake
        back to the model object that changed.
        """
        entry = (prop, token)
        if events & MIN_EVENT:
            if self.on_min is None:
                self.on_min = []
            self.on_min.append(entry)
        if events & MAX_EVENT:
            if self.on_max is None:
                self.on_max = []
            self.on_max.append(entry)
        if events & FIX_EVENT:
            if self.on_fix is None:
                self.on_fix = []
            self.on_fix.append(entry)

    # ----------------------------------------------------------------- write
    def _save(self, engine: "Engine") -> None:
        trail = engine.trail
        if self._stamp != trail.magic:
            trail.record(self, (self._min, self._max))
            self._stamp = trail.magic

    def _restore(self, state: Tuple[int, int]) -> None:
        self._min, self._max = state
        self._stamp = 0

    def set_min(self, v: int, engine: "Engine") -> bool:
        """Raise the lower bound to ``v``.  Returns True if the bound moved."""
        if v <= self._min:
            return False
        if v > self._max:
            raise Infeasible(
                f"{self.name or 'domain'}: min {v} exceeds max {self._max}"
            )
        self._save(engine)
        self._min = v
        if self.on_min:
            engine.wake(self.on_min)
        if v == self._max and self.on_fix:
            engine.wake(self.on_fix)
        return True

    def set_max(self, v: int, engine: "Engine") -> bool:
        """Lower the upper bound to ``v``.  Returns True if the bound moved."""
        if v >= self._max:
            return False
        if v < self._min:
            raise Infeasible(
                f"{self.name or 'domain'}: max {v} below min {self._min}"
            )
        self._save(engine)
        self._max = v
        if self.on_max:
            engine.wake(self.on_max)
        if v == self._min and self.on_fix:
            engine.wake(self.on_fix)
        return True

    def fix(self, v: int, engine: "Engine") -> bool:
        """Assign the domain to the single value ``v``."""
        moved = self.set_min(v, engine)
        moved |= self.set_max(v, engine)
        return moved

    def widen(self, lo: int, hi: int, engine: "Engine") -> None:
        """Put the bounds back to ``[lo, hi]``, a superset of the current ones.

        The one mutation that *relaxes*: LNS uses it to take a neighbourhood
        out of a pinned level back to its root bounds.  Trailed like any
        other write, and it wakes the subscribers of every event kind --
        a propagator that only listens for the bound it reads must still
        re-tighten the bound it writes (and an incremental one needs its
        dirty token) once either may have moved outwards.
        """
        if lo == self._min and hi == self._max:
            return
        self._save(engine)
        self._min = lo
        self._max = hi
        for entries in (self.on_min, self.on_max, self.on_fix):
            if entries:
                engine.wake(entries)

    def __repr__(self) -> str:
        tag = self.name or "dom"
        if self.is_fixed:
            return f"{tag}={self._min}"
        return f"{tag}∈[{self._min},{self._max}]"
