"""Engine-level profiling: per-propagator-class effort counters.

When attached to an :class:`~repro.cp.engine.Engine` (``engine.profile =
EngineProfile()``), the fixpoint loop records, per propagator *class*:

* ``runs``   -- executions,
* ``prunes`` -- trailed domain mutations the execution caused (a cheap,
  exact proxy for bound tightenings), and
* ``fails``  -- executions that ended in a wipe-out (``Infeasible``),

plus the accumulated wall time and call count of ``Engine.propagate``
itself.  Detached (``engine.profile is None``, the default) the engine runs
its original unconditional loop -- profiling costs nothing when off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass
class PropagatorCounters:
    """Effort counters for one propagator class."""

    runs: int = 0
    prunes: int = 0
    fails: int = 0


class EngineProfile:
    """Mutable profiling sink attached to one engine for one solve."""

    __slots__ = ("by_class", "propagate_calls", "propagate_time", "clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: propagator class name -> counters
        self.by_class: Dict[str, PropagatorCounters] = {}
        #: number of ``Engine.propagate`` fixpoint runs
        self.propagate_calls = 0
        #: wall seconds spent inside ``Engine.propagate`` (via ``clock``)
        self.propagate_time = 0.0
        self.clock = clock

    def counters(self, class_name: str) -> PropagatorCounters:
        """The counters for ``class_name``, created on first use."""
        c = self.by_class.get(class_name)
        if c is None:
            c = PropagatorCounters()
            self.by_class[class_name] = c
        return c

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain-dict snapshot: class name -> {runs, prunes, fails}."""
        return {
            name: {"runs": c.runs, "prunes": c.prunes, "fails": c.fails}
            for name, c in sorted(self.by_class.items())
        }

    def merge(self, other: "EngineProfile") -> None:
        """Accumulate another profile's counters into this one."""
        for name, c in other.by_class.items():
            mine = self.counters(name)
            mine.runs += c.runs
            mine.prunes += c.prunes
            mine.fails += c.fails
        self.propagate_calls += other.propagate_calls
        self.propagate_time += other.propagate_time
