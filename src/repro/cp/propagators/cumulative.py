"""Cumulative resource constraint via incremental time-table propagation.

This implements the ``cumulative`` global constraint of Table 1 (constraints
5 and 6): at every instant the total demand of executing tasks on a resource
must not exceed its capacity.  OPL expresses this with a sum of ``pulse``
expressions; we implement the classic *time-table* propagation instead:

1. **Overload check** -- aggregate the compulsory parts ``[lst, ect)`` of all
   present intervals; if the profile ever exceeds the capacity the node fails.
2. **Bounds filtering** -- a present interval with no compulsory part is swept
   across the profile: its earliest start is pushed past every stretch where
   ``profile + demand > capacity`` (and symmetrically its latest start is
   pulled back).
3. **Presence filtering** -- an optional interval that cannot fit anywhere in
   its window on top of the mandatory profile is made absent.

Tasks that *have* a compulsory part are not bounds-filtered (their own
contribution is in the profile and subtracting it per-task costs more than it
saves); the overload check still covers them, so the propagation is sound,
merely not maximally tight -- the same trade-off CP Optimizer's default
inference level makes.

Incrementality
--------------
The profile starts as a copy of the fixed ``base`` load and is *trailed*,
not rebuilt: each interval's cached compulsory part is re-derived only when
its start bounds or presence changed since the last run (the dirty tokens
of :meth:`IntDomain.watch`), and every profile delta pushes an undo record
so backtracking restores the profile in lock-step with the domains.  A version counter -- bumped on every profile
mutation, including undo -- decides how much filtering a run owes: when the
profile is untouched since the last completed run, previously filtered
bounds are still at their fixpoint, so only the dirty intervals are swept
and the overload check is skipped; any profile delta triggers the full
overload check plus a sweep of every candidate, exactly what the
from-scratch propagator did on every run.

The candidates of that sweep are the tasks with *no* compulsory part (one
with a part is never bounds-filtered, see above).  They are kept as a set,
``_free``, written at the two places the cached parts are -- the sync and
the trail undo -- so a sweep visits them in index order without walking the
tasks that are pinned, frozen or already decided, which in an LNS dive or a
mostly-frozen planner model is nearly all of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cp.domain import FIX_EVENT, MAX_EVENT, MIN_EVENT
from repro.cp.errors import Infeasible
from repro.cp.profile import TimetableProfile
from repro.cp.propagators.base import Propagator
from repro.cp.variables import IntervalVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine

#: Cached compulsory part: (start, end) of the trailed profile pulse.
_Part = Optional[Tuple[int, int]]

#: Sentinel bound for an empty changed-window envelope.
_HUGE = 1 << 62


class CumulativePropagator(Propagator):
    """``sum(pulse(task, demand)) <= capacity`` over a set of intervals."""

    priority = 1  # expensive: run after the cheap propagators settle

    __slots__ = (
        "intervals",
        "demands",
        "capacity",
        "_tasks",
        "_parts",
        "_free",
        "_profile",
        "_version",
        "_filtered_version",
        "_chg_all",
        "_chg_lo",
        "_chg_hi",
    )

    def __init__(
        self,
        intervals: Sequence[IntervalVar],
        demands: Sequence[int],
        capacity: int,
        name: str = "",
        base: Optional[TimetableProfile] = None,
    ) -> None:
        super().__init__(name or "cumulative")
        if len(intervals) != len(demands):
            raise ValueError("intervals and demands must have equal length")
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        self.intervals = list(intervals)
        self.demands = [int(d) for d in demands]
        self.capacity = int(capacity)
        #: Flattened hot-loop view of the intervals that can ever load the
        #: resource: (interval, start domain, presence domain, demand, length).
        self._tasks: List[Tuple[IntervalVar, "IntDomain", Optional["IntDomain"], int, int]] = [
            (
                iv,
                iv.start,
                iv.presence.domain if iv.presence is not None else None,
                d,
                iv.length,
            )
            for iv, d in zip(self.intervals, self.demands)
            if d != 0 and iv.length != 0
        ]
        #: Compulsory part currently inside :attr:`_profile`, per task.
        self._parts: List[_Part] = [None] * len(self._tasks)
        #: Tasks with no compulsory part in the profile -- the only ones the
        #: sweep can filter.  Written wherever :attr:`_parts` is.
        self._free: Set[int] = set(range(len(self._tasks)))
        self._profile = base.copy() if base is not None else TimetableProfile()
        #: Bumped on every profile mutation (sync *and* backtrack undo).
        self._version = 0
        #: :attr:`_version` as of the last completed filtering pass.
        self._filtered_version = -1
        #: Envelope [lo, hi) hull of all profile regions mutated since the
        #: last full filtering pass (sync, undo); a candidate whose window
        #: does not overlap it -- and whose own bounds did not change -- has
        #: provably unchanged fit queries, so the sweep skips it.
        self._chg_all = True  # first run: everything is new
        self._chg_lo = _HUGE
        self._chg_hi = -_HUGE
        self._dirty.update(range(len(self._tasks)))

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        for k, (iv, start, pres, _d, _length) in enumerate(self._tasks):
            yield start, MIN_EVENT | MAX_EVENT, k
            if pres is not None:
                yield pres, FIX_EVENT, k

    def on_reset(self, engine: "Engine") -> None:
        # pop_all rewinds the trailed profile/parts, but the untrailed dirty
        # set was consumed by past runs: re-prime so the first fixpoint
        # re-derives every compulsory part from the pristine domains.
        self._dirty.update(range(len(self._tasks)))
        self._version += 1
        self._chg_all = True

    def _widen(self, part: _Part) -> None:
        """Grow the changed-window envelope to cover a mutated pulse."""
        if part is not None:
            if part[0] < self._chg_lo:
                self._chg_lo = part[0]
            if part[1] > self._chg_hi:
                self._chg_hi = part[1]

    def _restore(self, state: Tuple[int, _Part, _Part]) -> None:
        """Trail undo: revert one compulsory-part delta (LIFO with domains)."""
        k, old, new = state
        _iv, _start, _pres, d, _length = self._tasks[k]
        profile = self._profile
        if new is not None:
            profile.remove(new[0], new[1], d)
        if old is not None:
            profile.add(old[0], old[1], d)
        self._parts[k] = old
        if old is None:
            self._free.add(k)
        else:
            self._free.discard(k)
        self._version += 1
        self._widen(old)
        self._widen(new)

    # ----------------------------------------------------------------- body
    def propagate(self, engine: "Engine") -> None:
        cap = self.capacity
        tasks = self._tasks
        parts = self._parts
        free = self._free
        profile = self._profile
        dirty = self._dirty

        # Sync: fold the compulsory-part deltas of changed tasks into the
        # trailed profile.  Commutative, so iteration order is free; sorted
        # keeps runs deterministic.
        touched: Tuple[int, ...] = ()
        if dirty:
            touched = tuple(sorted(dirty))
            dirty.clear()
            trail = engine.trail
            for k in touched:
                _iv, start, pres, d, length = tasks[k]
                smin = start._min
                smax = start._max
                if (pres is None or pres._min == 1) and smax < smin + length:
                    new: _Part = (smax, smin + length)
                else:
                    new = None
                old = parts[k]
                if new != old:
                    if old is not None:
                        profile.remove(old[0], old[1], d)
                    if new is not None:
                        profile.add(new[0], new[1], d)
                    parts[k] = new
                    if new is None:
                        free.add(k)
                    else:
                        free.discard(k)
                    trail.record(self, (k, old, new))
                    self._version += 1
                    self._widen(old)
                    self._widen(new)

        # How much filtering does this run owe?  An untouched profile means
        # every previously swept bound is still at its fixpoint: only the
        # tasks whose own windows changed need re-sweeping, and the overload
        # check would reproduce its previous verdict.  When the profile did
        # change, only candidates whose placement window overlaps the
        # changed-window envelope (plus the dirty ones) can see a different
        # fit query result; everyone else is still at its fixpoint.
        env_lo = env_hi = None
        tset: frozenset = frozenset()
        if self._version != self._filtered_version:
            if profile.max_height() > cap:
                raise Infeasible(
                    f"{self.name}: compulsory demand "
                    f"{profile.max_height()} exceeds capacity {cap}"
                )
            candidates: Iterable[int] = sorted(free)
            if not self._chg_all:
                env_lo = self._chg_lo
                env_hi = self._chg_hi
                tset = frozenset(touched)
            self._filtered_version = self._version
            self._chg_all = False
            self._chg_lo = _HUGE
            self._chg_hi = -_HUGE
        else:
            candidates = touched

        for k in candidates:
            iv, start, pres, d, length = tasks[k]
            if pres is not None:
                pmin = pres._min
                if pres._max == 0:
                    continue  # absent: bounds are meaningless
                present = pmin == 1
            else:
                present = True
            smin = start._min
            smax = start._max
            if present and smax < smin + length:
                continue  # own contribution is inside the profile; skip
            if env_lo is not None and (
                smin >= env_hi or smax + length <= env_lo
            ) and k not in tset:
                continue  # window misses every changed region: fits unchanged
            bounds = profile.fit_bounds(smin, smax, length, d, cap)
            if bounds is None:
                if pres is not None and not present:
                    iv.set_absent(engine)
                    continue
                raise Infeasible(
                    f"{self.name}: no feasible start for {iv.name} "
                    f"in [{smin}, {smax}]"
                )
            fit, late_fit = bounds
            if late_fit < fit:
                # An earliest fit proves a feasible placement exists at or
                # after it, so the latest fit can never precede it; reaching
                # this line means the sweep invariant broke.  Fail the node
                # explicitly rather than letting an inverted window reach
                # set_start_max (an assert would be stripped under
                # ``python -O`` and corrupt the search silently).
                raise Infeasible(
                    f"{self.name}: internal time-table inconsistency -- "
                    f"earliest fit {fit} for {iv.name} after latest {late_fit}"
                )
            if present:
                changed = start.set_min(fit, engine)
                changed |= start.set_max(late_fit, engine)
                if changed and start._max < start._min + length:
                    # The interval gained a compulsory part: re-run so the
                    # profile (and other tasks) see it.
                    engine.schedule(self)
