"""Fixpoint propagation engine with chronological backtracking.

The engine owns the trail, the propagation queue and the registered
propagators.  It is built once per :class:`~repro.cp.model.CpModel` and reused
across solver phases (warm start, tree search, LNS): calling
:meth:`Engine.reset` rewinds every domain to its pristine state.  Between
resets the trail is a plain stack of levels -- a tree search, or LNS's pinned
incumbent, holds the levels it pushed and pops back to where it started.

Design notes
------------
* Two FIFO queues implement a two-level priority scheme: cheap propagators
  (precedences, reified indicators) run before the O(n log n) cumulative
  sweep, which keeps the fixpoint loop from re-running the expensive
  propagator on every bound change.
* Wake-ups are *cause-aware*: while a propagator executes it is the engine's
  ``active`` propagator, and its own prunes never re-enqueue it.  Every
  registered propagator is idempotent (reaches its own fixpoint in one run,
  or explicitly re-schedules itself via :meth:`schedule` when it cannot), so
  suppressing self-wakes changes how the fixpoint is *reached*, never the
  fixpoint itself.  Dirty tokens are still recorded for suppressed wakes --
  an incremental propagator must see its own prunes as deltas next run.
* Dirty tokens are *not* trailed; :meth:`Engine.clear_queue` drops them with
  the queue.  Every caller has just popped back to a level pushed at a
  fixpoint (``tree_search``'s backtrack and exit, LNS's return to its pinned
  level), is about to pop (a failed ``propagate``), or resets, so a token
  left from a popped or failed subtree names a task whose restored bounds
  already sit at the fixpoint.  A level that is *not* at one -- a
  ``_PinnedLevel`` whose pins failed, a reset -- is re-primed by
  :meth:`Engine.schedule_all` (each propagator's ``on_reset``) before it
  propagates.
* ``objective_bound`` is deliberately *not* trailed: during branch-and-bound
  it only ever tightens, so a bound installed deep in the tree remains valid
  after backtracking.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.cp.errors import Infeasible
from repro.cp.trail import Trail

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.instrument import EngineProfile
    from repro.cp.propagators.base import Propagator


class Engine:
    """Runtime state for one CP model: trail + propagation queue."""

    def __init__(self) -> None:
        self.trail = Trail()
        self.propagators: List["Propagator"] = []
        self._queue_high: deque = deque()
        self._queue_low: deque = deque()
        #: Upper bound on the objective for branch-and-bound pruning
        #: (``None`` = no bound yet).  Read by the objective propagator.
        self.objective_bound: Optional[int] = None
        #: The objective propagator, re-scheduled when the bound tightens.
        self.objective_propagator: Optional["Propagator"] = None
        #: Number of individual propagator executions (for stats/debugging).
        self.propagation_count: int = 0
        #: Optional per-propagator-class profiling sink (None = no profiling
        #: and zero overhead; see :mod:`repro.cp.instrument`).
        self.profile: Optional["EngineProfile"] = None
        #: The propagator currently executing (wake-ups from its own prunes
        #: are suppressed; see module docstring).
        self.active: Optional["Propagator"] = None
        self._root_ready = False
        self._subscribed = False
        #: Propagators with dirty tokens (see :meth:`clear_queue`).
        self._tokened: List["Propagator"] = []

    # ------------------------------------------------------------- building
    def register(self, prop: "Propagator") -> None:
        """Add a propagator; it is subscribed to its watched domains lazily.

        Subscription (wiring ``prop.watches()`` into the domains' per-event
        lists) is deferred to the first :meth:`propagate` call: until then
        every propagator sits in the queue with a full dirty set (see
        :meth:`schedule_all`), so missed wake-ups cannot lose inference,
        and callers that never propagate -- warm-start-only rounds -- skip
        the subscription cost entirely.
        """
        if self._root_ready:
            raise RuntimeError("cannot register propagators after seal()")
        self.propagators.append(prop)

    def _subscribe_all(self) -> None:
        self._subscribed = True
        for prop in self.propagators:
            tokened = False
            for dom, events, token in prop.watches():
                dom.watch(prop, events, token)
                tokened |= token is not None
            if tokened:
                self._tokened.append(prop)

    def seal(self) -> None:
        """Freeze the propagator set and mark the pristine state.

        Everything mutated after ``seal()`` is recorded on the trail, so
        :meth:`reset` can always rewind to this point.
        """
        self._root_ready = True
        self.trail.push_level()
        self.schedule_all()

    def reset(self) -> None:
        """Rewind all domains to the state captured by :meth:`seal`.

        Every trail level is popped, whoever pushed it, and every propagator
        is re-primed and queued: the next :meth:`propagate` is a root
        propagation from nothing.  That is the price of a *new* root (a new
        solve, a new LNS incumbent); work below one root -- a dive, an LNS
        iteration -- pushes and pops levels instead.

        Also clears the branch-and-bound objective bound, the one piece of
        state that is not trailed: a bound belongs to one solve, and callers
        resuming an improvement (LNS) re-install it via the ``incumbent``
        they pass to the search.
        """
        if not self._root_ready:
            raise RuntimeError("seal() must be called before reset()")
        self.trail.pop_all()
        self.trail.push_level()
        self.clear_queue()
        self.schedule_all()
        self.objective_bound = None

    # ------------------------------------------------------------ the queue
    def schedule(self, prop: "Propagator") -> None:
        """Enqueue a propagator (no-op if already queued)."""
        if prop.queued:
            return
        prop.queued = True
        if prop.priority == 0:
            self._queue_high.append(prop)
        else:
            self._queue_low.append(prop)

    def schedule_all(self) -> None:
        """Re-prime and enqueue every propagator (root/fixpoint restart).

        ``pop_all`` rewinds trailed state but not untrailed incremental
        bookkeeping, so each propagator's :meth:`on_reset` hook runs first.
        """
        for prop in self.propagators:
            prop.on_reset(self)
            self.schedule(prop)

    def wake(
        self,
        entries: Iterable[Tuple["Propagator", object]],
        cause: Optional["Propagator"] = None,
    ) -> None:
        """Enqueue subscribers of a changed domain.

        ``entries`` are ``(propagator, token)`` pairs from one of the
        domain's per-event lists.  The *cause* (defaulting to the currently
        executing propagator) is never re-enqueued for its own prune, but
        its dirty token is still recorded -- incremental propagators must
        account for their own prunes as deltas on the next run.
        """
        if cause is None:
            cause = self.active
        for prop, token in entries:
            if token is not None:
                prop._dirty.add(token)
            if prop is cause or prop.queued:
                continue
            prop.queued = True
            if prop.priority == 0:
                self._queue_high.append(prop)
            else:
                self._queue_low.append(prop)

    def clear_queue(self) -> None:
        """Drop all pending propagator activations and every dirty token.

        Used after a failure and after backtracking; why the tokens owe
        nothing there is in the module docstring.
        """
        for q in (self._queue_high, self._queue_low):
            while q:
                q.popleft().queued = False
        for prop in self._tokened:
            prop._dirty.clear()

    def on_bound_tightened(self, bound: int) -> None:
        """Install a new objective upper bound and re-arm its propagator."""
        if self.objective_bound is None or bound < self.objective_bound:
            self.objective_bound = bound
        if self.objective_propagator is not None:
            self.schedule(self.objective_propagator)

    # ----------------------------------------------------------- the engine
    def propagate(self) -> None:
        """Run queued propagators to a fixpoint.

        Raises :class:`~repro.cp.errors.Infeasible` on a wipe-out; the caller
        is responsible for calling :meth:`clear_queue` before continuing the
        search from another node.
        """
        if not self._subscribed:
            self._subscribe_all()
        if self.profile is not None:
            self._propagate_profiled(self.profile)
            return
        qh, ql = self._queue_high, self._queue_low
        try:
            while True:
                if qh:
                    prop = qh.popleft()
                elif ql:
                    prop = ql.popleft()
                else:
                    return
                prop.queued = False
                self.propagation_count += 1
                self.active = prop
                prop.propagate(self)
        except Infeasible:
            self.clear_queue()
            raise
        finally:
            self.active = None

    def _propagate_profiled(self, profile: "EngineProfile") -> None:
        """The fixpoint loop with per-propagator-class accounting.

        Identical contract to :meth:`propagate`; trailed-mutation deltas
        around each execution attribute prunes to the propagator class.
        """
        qh, ql = self._queue_high, self._queue_low
        trail = self.trail
        t0 = profile.clock()
        profile.propagate_calls += 1
        try:
            while True:
                if qh:
                    prop = qh.popleft()
                elif ql:
                    prop = ql.popleft()
                else:
                    return
                prop.queued = False
                self.propagation_count += 1
                counters = profile.counters(type(prop).__name__)
                counters.runs += 1
                before = len(trail)
                self.active = prop
                try:
                    prop.propagate(self)
                except Infeasible:
                    counters.fails += 1
                    raise
                counters.prunes += len(trail) - before
        except Infeasible:
            self.clear_queue()
            raise
        finally:
            self.active = None
            profile.propagate_time += profile.clock() - t0
