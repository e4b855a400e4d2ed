"""Resource usage profiles over time (the *time-table*).

Both the cumulative propagator and the list-scheduling heuristics need the
same primitive: a step function ``height(t)`` recording how much of a
resource's capacity is consumed at each instant, plus an *earliest fit* query
("from time ``est`` on, where is the first slot of ``length`` units where an
extra ``demand`` still fits under ``capacity``?").

The profile is kept as a sorted list of breakpoints; pieces between
consecutive breakpoints have constant height, read from a prefix-sum
``_heights`` array that the first query materialises (one C-speed
:func:`itertools.accumulate`) and that :meth:`~TimetableProfile.add` /
:meth:`~TimetableProfile.remove` then patch in place, touching only the
pieces under the changed interval.

:meth:`~TimetableProfile.fit_bounds` -- the cumulative propagator's sweep,
asked many times between two changes of its profile -- does not walk the
pieces.  It reads a *blocked-run index*: for the limit ``capacity -
demand``, the sorted maximal runs of pieces with ``h != 0 and h > limit``.
Each step bisects for the one run that can overlap the placement window and
jumps past it, so a query costs the runs it clears, not the pieces it
crosses.  The index is built on first use per limit and dropped by every
:meth:`~TimetableProfile.add`; :meth:`~TimetableProfile.copy` starts without
one.  :meth:`~TimetableProfile.earliest_fit` and
:meth:`~TimetableProfile.place_earliest` keep the piece-by-piece sweep: list
scheduling adds to the profile between any two queries, so an index would
be rebuilt for every placement and read once.

The whole surface is ``add`` / ``remove`` (mutation), ``copy``,
``height_at`` / ``max_height`` (reading) and ``earliest_fit`` /
``fit_bounds`` / ``place_earliest`` (placement).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from typing import Dict, List, Optional, Tuple


class TimetableProfile:
    """A mutable step function built from half-open usage intervals."""

    __slots__ = ("_times", "_deltas", "_heights", "_runs")

    def __init__(self) -> None:
        self._times: List[int] = []
        self._deltas: List[int] = []
        #: Prefix sums of ``_deltas`` (``_heights[i]`` = height over
        #: ``[_times[i], _times[i+1])``); built by the first query, patched
        #: in place by :meth:`add` from then on.
        self._heights: Optional[List[int]] = None
        #: Blocked-run index of :meth:`fit_bounds`, per ``capacity - demand``
        #: limit: ``(starts, ends)`` of the maximal runs of blocking pieces.
        #: Built lazily, dropped by every :meth:`add`.
        self._runs: Optional[Dict[int, Tuple[List[int], List[int]]]] = None

    def copy(self) -> "TimetableProfile":
        """An independent profile with the same step function."""
        twin = TimetableProfile()
        twin._times = self._times[:]
        twin._deltas = self._deltas[:]
        return twin

    def add(self, start: int, end: int, demand: int) -> None:
        """Consume ``demand`` units over ``[start, end)``.

        The prefix-sum ``_heights`` array, when already materialised, is
        patched in place: only the pieces overlapping ``[start, end)`` are
        touched, so interleaved fit/add sequences (list scheduling places
        one task, then queries again) stay far from the O(n) full rebuild.
        """
        if end <= start or demand == 0:
            return
        self._runs = None
        times = self._times
        deltas = self._deltas
        h = self._heights
        i = bisect_left(times, start)
        start_merged_left = False
        if i < len(times) and times[i] == start:
            d = deltas[i] + demand
            if d:
                deltas[i] = d
            else:
                del times[i]
                del deltas[i]
                if h is not None:
                    del h[i]
                i -= 1  # the piece merged into its left neighbour
                start_merged_left = True
            lo = i + 1 if start_merged_left else i
        else:
            times.insert(i, start)
            deltas.insert(i, demand)
            if h is not None:
                # Pre-update height of the piece being split.
                h.insert(i, h[i - 1] if i > 0 else 0)
            lo = i
        j = bisect_left(times, end, i + 1 if i >= 0 else 0)
        if j < len(times) and times[j] == end:
            d = deltas[j] - demand
            if d:
                deltas[j] = d
            else:
                del times[j]
                del deltas[j]
                if h is not None:
                    del h[j]
        else:
            times.insert(j, end)
            deltas.insert(j, -demand)
            if h is not None:
                if start_merged_left and j == i + 1:
                    # ``end`` splits the piece whose left breakpoint just
                    # cancel-merged away: its pre-update height is the left
                    # neighbour's height minus the cancelled delta.
                    split_h = (h[i] if i >= 0 else 0) - demand
                else:
                    split_h = h[j - 1] if j > 0 else 0
                h.insert(j, split_h)
        if h is not None:
            for k in range(lo, j):
                h[k] += demand

    def remove(self, start: int, end: int, demand: int) -> None:
        """Release ``demand`` units over ``[start, end)`` (inverse of add)."""
        self.add(start, end, -demand)

    # ------------------------------------------------------------- queries
    def _height_array(self) -> List[int]:
        heights = self._heights
        if heights is None:
            heights = self._heights = list(accumulate(self._deltas))
        return heights

    def height_at(self, t: int) -> int:
        """Profile height at instant ``t``."""
        i = bisect_right(self._times, t) - 1
        if i < 0:
            return 0
        return self._height_array()[i]

    def max_height(self) -> int:
        """Peak height of the profile over all time."""
        heights = self._height_array()
        if not heights:
            return 0
        best = max(heights)
        return best if best > 0 else 0

    def earliest_fit(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[int]:
        """First start ``s`` in ``[est, lst]`` where the task fits, else None.

        A zero-length or zero-demand task always fits at ``est``.
        """
        if length == 0 or demand == 0:
            return est
        times = self._times
        n = len(times)
        s = est
        if n:
            heights = self._height_array()
            limit = capacity - demand
            # Piece i covers [times[i], times[i+1]); start at the piece
            # containing s (earlier pieces end at or before s).
            i = bisect_right(times, s) - 1
            if i < 0:
                i = 0
            last = n - 1  # the open piece [times[-1], inf) has height 0
            while i < last:
                if times[i] >= s + length:
                    break
                h = heights[i]
                if h != 0 and h > limit:
                    b = times[i + 1]
                    if b > s:
                        s = b
                        if s > lst:
                            return None
                i += 1
        return s if s <= lst else None

    def _blocked_runs(self, limit: int) -> Tuple[List[int], List[int]]:
        """``(starts, ends)`` of the maximal runs of pieces with
        ``h != 0 and h > limit``, cached in :attr:`_runs`."""
        runs = self._runs
        if runs is None:
            runs = self._runs = {}
        else:
            cached = runs.get(limit)
            if cached is not None:
                return cached
        times = self._times
        starts: List[int] = []
        ends: List[int] = []
        # zip stops before the open piece [times[-1], inf), which is empty.
        for t0, t1, h in zip(times, islice(times, 1, None), self._height_array()):
            if h != 0 and h > limit:
                if ends and ends[-1] == t0:
                    ends[-1] = t1
                else:
                    starts.append(t0)
                    ends.append(t1)
        cached = runs[limit] = (starts, ends)
        return cached

    def fit_bounds(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[Tuple[int, int]]:
        """``(earliest, latest)`` feasible start in ``[est, lst]``, or None.

        ``earliest`` is exactly :meth:`earliest_fit`; ``latest`` is its
        mirror image.  Both jump run to run over the blocked-run index (this
        is the cumulative propagator's hot loop).  Returns None when no
        placement fits (both sweeps fail together: a feasible placement
        exists iff either finds one).
        """
        if length == 0 or demand == 0 or not self._times:
            return est, lst
        starts, ends = self._blocked_runs(capacity - demand)
        # Earliest: while the last run starting before s + length ends after
        # s, no start before its end fits.
        s = est
        while True:
            j = bisect_left(starts, s + length) - 1
            if j < 0 or ends[j] <= s:
                break
            s = ends[j]
            if s > lst:
                return None
        if s > lst:
            return None
        early = s
        # Latest: while the first run ending after s starts before
        # s + length, no start after its start - length fits.
        s = lst
        n = len(ends)
        while True:
            j = bisect_right(ends, s)
            if j == n or starts[j] >= s + length:
                break
            s = starts[j] - length
            if s < est:
                # Unreachable when the earliest sweep succeeded (a feasible
                # placement bounds the latest sweep from below); surface the
                # inverted window to the caller rather than masking it as
                # "no placement".
                return early, s
        return early, s

    def place_earliest(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[int]:
        """:meth:`earliest_fit` + :meth:`add` in one call (list-scheduler hot
        path); returns the chosen start, or None (profile untouched)."""
        s = self.earliest_fit(est, lst, length, demand, capacity)
        if s is not None:
            self.add(s, s + length, demand)
        return s
