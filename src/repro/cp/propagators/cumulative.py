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
of :meth:`IntDomain.watch`).  A changed part moves by the deltas at its two
ends, not by a remove and an add, and every change pushes an undo record so
backtracking restores the profile in lock-step with the domains.

What a run owes is a changed-window *envelope*: the ``[lo, hi)`` hull of
the profile pieces that *grew* since the last full pass, or "everything"
after a reset.  A part that shrinks or vanishes owes nothing -- a lower
profile neither overloads nor moves a fit that stood.  With an empty
envelope only the dirty tasks are swept; otherwise the overload check runs
and each candidate is swept unless its fits provably did not move: a
present candidate's bounds are fits, so it is skipped when the envelope
misses both ``[smin, smin + length)`` and ``[smax, smax + length)``; an
optional one is only known to fit *somewhere*, so it is skipped when the
envelope misses its whole window ``[smin, smax + length)``.

The envelope is trailed too: the first part record of each trail level (a
stamp against :attr:`Trail.magic`, as in ``IntDomain._save``) carries a
snapshot of it, so popping a level restores the envelope the level was
pushed with and an undo owes no filtering.  Riding inside the part record
keeps the trail at one entry per part change.  This is sound because every
level is pushed at a fixpoint (``tree_search``'s decisions and its entry
after the solver's root propagation, LNS's pinned level and ``relax``),
where the envelope is empty.  A level that is not (a failed node, a fresh
reset) is re-primed before it propagates: ``schedule_all`` calls
:meth:`on_reset`, which marks every task dirty and the envelope
"everything".

The candidates of a sweep are the tasks with *no* compulsory part (one
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

#: The filtering a run owes: (everything, envelope lo, envelope hi).
_Owed = Tuple[bool, int, int]

#: Sentinel bound for an empty changed-window envelope.
_HUGE = 1 << 62


def _shift(profile: TimetableProfile, old: _Part, new: _Part, d: int) -> _Part:
    """Move a ``d``-high pulse from ``old`` to ``new`` by its changed ends.

    Returns the hull of the pieces that grew (None when none did).
    """
    if new is None:
        if old is not None:
            profile.add(old[0], old[1], -d)
        return None
    if old is None or new[0] >= old[1] or old[0] >= new[1]:
        if old is not None:
            profile.add(old[0], old[1], -d)
        profile.add(new[0], new[1], d)
        return new
    a, b = old
    c, e = new
    lo = hi = None
    if c < a:
        profile.add(c, a, d)
        lo, hi = c, a
    elif c > a:
        profile.add(a, c, -d)
    if e > b:
        profile.add(b, e, d)
        if lo is None:
            lo = b
        hi = e
    elif e < b:
        profile.add(e, b, -d)
    return None if lo is None else (lo, hi)


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
        "_chg_all",
        "_chg_lo",
        "_chg_hi",
        "_stamp",
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
        #: The filtering owed (see the module docstring): every candidate
        #: (:attr:`_chg_all`), or those whose fits meet the envelope
        #: ``[_chg_lo, _chg_hi)`` of the pieces grown since the last pass;
        #: nothing when the envelope is empty.  Trailed per level.
        self._chg_all = True  # first run: everything is new
        self._chg_lo = _HUGE
        self._chg_hi = -_HUGE
        #: ``Trail.magic`` of the level whose first part record carried the
        #: envelope snapshot.
        self._stamp = 0
        self._dirty.update(range(len(self._tasks)))

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        for k, (iv, start, pres, _d, _length) in enumerate(self._tasks):
            yield start, MIN_EVENT | MAX_EVENT, k
            if pres is not None:
                yield pres, FIX_EVENT, k

    def on_reset(self, engine: "Engine") -> None:
        # The dirty set is not trailed and the level being primed is not at
        # a fixpoint: re-derive every compulsory part and sweep everything.
        self._dirty.update(range(len(self._tasks)))
        self._chg_all = True

    def _restore(self, state: Tuple[int, _Part, _Part, Optional[_Owed]]) -> None:
        """Trail undo: revert one compulsory-part change (LIFO with domains).

        The level's first record also puts back the envelope the level was
        pushed with; an undo itself owes no filtering.
        """
        k, old, new, owed = state
        _shift(self._profile, new, old, self._tasks[k][3])
        self._parts[k] = old
        if old is None:
            self._free.add(k)
        else:
            self._free.discard(k)
        if owed is not None:
            self._chg_all, self._chg_lo, self._chg_hi = owed

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
                    owed: Optional[_Owed] = None
                    if self._stamp != trail.magic:
                        self._stamp = trail.magic
                        owed = (self._chg_all, self._chg_lo, self._chg_hi)
                    trail.record(self, (k, old, new, owed))
                    parts[k] = new
                    if new is None:
                        free.add(k)
                    else:
                        free.discard(k)
                    grown = _shift(profile, old, new, d)
                    if grown is not None:
                        if grown[0] < self._chg_lo:
                            self._chg_lo = grown[0]
                        if grown[1] > self._chg_hi:
                            self._chg_hi = grown[1]

        # How much filtering does this run owe?  Nothing grown means every
        # previously swept bound is still at its fixpoint: only the tasks
        # whose own windows changed need re-sweeping, and the overload check
        # would reproduce its previous verdict.  Otherwise a candidate is
        # swept when its fits meet the envelope or its own bounds changed.
        env_lo = env_hi = 0
        tset: frozenset = frozenset()
        if self._chg_all or self._chg_lo < self._chg_hi:
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
            if env_lo < env_hi and k not in tset:
                if present:
                    if (smin >= env_hi or smin + length <= env_lo) and (
                        smax >= env_hi or smax + length <= env_lo
                    ):
                        continue  # neither fit's placement grew: both stand
                elif smin >= env_hi or smax + length <= env_lo:
                    continue  # window misses every grown piece: a fit stands
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
