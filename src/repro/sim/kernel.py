"""Event-calendar simulation kernel.

The kernel is deliberately small: a binary-heap calendar of timestamped
callbacks, plus an optional generator-coroutine layer (:class:`Process`)
for writing drivers such as "draw inter-arrival time, submit job, repeat"
in straight-line style.

Determinism: the calendar is a heap of ``(time, priority, seq, handle)``
tuples, so events at equal times fire by priority and then in scheduling
order (the monotone, unique ``seq`` breaks every tie before a handle is ever
compared), and a seeded run is exactly reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


#: Priority classes for same-timestamp ordering.  Resource *releases* must
#: be observed before resource *acquisitions* at the same instant, or
#: back-to-back tasks on one slot would appear to overlap.
PRIORITY_RELEASE = 0
PRIORITY_DEFAULT = 5
PRIORITY_ACQUIRE = 9


class EventHandle:
    """A scheduled callback; keep it to :meth:`cancel` before it fires."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (safe after it fired: no-op)."""
        self.cancelled = True


class Simulator:
    """The event calendar."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._now = float(start_time)
        self._stopped = False
        #: Number of events dispatched (for sanity checks / stats).
        self.dispatched = 0
        # Observability gauges (no-ops until attach_observability); synced
        # only at run() exits so the dispatch loop stays untouched.
        self._gauge_dispatched = NULL_REGISTRY.gauge("sim.events_dispatched")
        self._gauge_now = NULL_REGISTRY.gauge("sim.now")
        self._gauge_calendar = NULL_REGISTRY.gauge("sim.calendar_size")

    @property
    def now(self) -> float:
        return self._now

    def attach_observability(self, registry: MetricsRegistry) -> None:
        """Report kernel gauges into ``registry``.

        Registers ``sim.events_dispatched`` / ``sim.now`` /
        ``sim.calendar_size``, updated whenever :meth:`run` returns (never
        inside the dispatch loop, so attaching cannot perturb a run).
        """
        self._gauge_dispatched = registry.gauge("sim.events_dispatched")
        self._gauge_now = registry.gauge("sim.now")
        self._gauge_calendar = registry.gauge("sim.calendar_size")

    def sync_gauges(self) -> None:
        """Push the kernel's current state into the attached gauges.

        Called at every :meth:`run` exit, and by the telemetry sampler at
        each sampling instant -- without the latter, mid-run registry
        scrapes would read the gauges as of the *previous* ``run()`` exit.
        """
        self._gauge_dispatched.set(float(self.dispatched))
        self._gauge_now.set(self._now)
        self._gauge_calendar.set(float(len(self._heap)))

    def telemetry_snapshot(self) -> Dict[str, float]:
        """Authoritative kernel state for a telemetry sample.

        Unlike the gauges (pushed at sync points), these values are read
        straight off the kernel, so a sample can never observe them stale.
        ``calendar_size`` counts live (non-cancelled) events.
        """
        return {
            "sim_time": self._now,
            "events_dispatched": self.dispatched,
            "calendar_size": self.pending,
        }

    # ----------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Run ``callback`` ``delay`` simulated time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time`` (>= now).

        Same-timestamp events fire by (priority, scheduling order).
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        handle = EventHandle(callback)
        heapq.heappush(self._heap, (time, priority, self._seq, handle))
        self._seq += 1
        return handle

    # -------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the calendar empties or ``until`` is passed.

        Returns the simulation time at exit.  Events scheduled exactly at
        ``until`` still fire.
        """
        self._stopped = False
        heap = self._heap
        while heap and not self._stopped:
            time, _priority, _seq, handle = heap[0]
            if handle.cancelled:
                # Purge before the early-exit check (mirrors peek()): a
                # cancelled head must not decide when the loop pauses.
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                self._now = until
                self.sync_gauges()
                return self._now
            heapq.heappop(heap)
            self._now = time
            self.dispatched += 1
            handle.callback()
        if until is not None and self._now < until:
            self._now = until
        self.sync_gauges()
        return self._now

    def step(self) -> bool:
        """Dispatch a single event; returns False when the calendar is empty."""
        while self._heap:
            time, _priority, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            self.dispatched += 1
            handle.callback()
            return True
        return False

    def stop(self) -> None:
        """Halt :meth:`run` after the current event completes."""
        self._stopped = True

    def state_digest(self) -> Dict[str, float]:
        """The kernel's position, as comparable JSON-safe data.

        Two same-seed runs at the same number of dispatched events must
        agree on all four values (events fire in a deterministic order);
        checkpoint/restore validation relies on exactly that.
        """
        return {
            "now": self._now,
            "dispatched": self.dispatched,
            "seq": self._seq,
            "pending": self.pending,
        }

    @property
    def pending(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def peek(self) -> Optional[float]:
        """Time of the next (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------ processes
    def process(self, generator: Generator) -> "Process":
        """Start a generator coroutine as a simulation process."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that fires ``delay`` time units from now."""
        ev = Event(self)
        self.schedule(delay, lambda: ev.succeed(value))
        return ev

    def event(self) -> "Event":
        """A fresh untriggered event bound to this simulator."""
        return Event(self)


class Event:
    """A one-shot occurrence that processes can wait on."""

    __slots__ = ("sim", "callbacks", "triggered", "value")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to waiting callbacks."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb`` when the event triggers (immediately if it already has)."""
        if self.triggered:
            cb(self)
        else:
            self.callbacks.append(cb)


class Process(Event):
    """Drives a generator: each ``yield``ed Event resumes the generator."""

    __slots__ = ("_gen",)

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        super().__init__(sim)
        self._gen = generator
        # Start on a zero-delay event so creation order doesn't matter.
        sim.schedule(0.0, lambda: self._resume(None))

    def _resume(self, event: Optional[Event]) -> None:
        try:
            target = self._gen.send(None if event is None else event.value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process must yield Event instances, got {type(target).__name__}"
            )
        target.add_callback(self._resume)
