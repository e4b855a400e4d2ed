"""Injectable clocks: the pinned wall clock and the service clock family.

Two distinct time axes run through the codebase:

* The **wall clock** measures real elapsed seconds (the overhead metric O,
  span durations, admission solve latency).  It is injectable everywhere --
  :class:`PinnedClock` replaces it with a deterministic tick counter so
  benchmark and checkpoint runs are byte-identical across machines.
* The **service clock** drives the online front-end (:mod:`repro.service`):
  where the simulator's calendar advances simulated time, a long-running
  service advances *wall* time.  :class:`ServiceClock` is the small
  interface the service code programs against; :class:`WallServiceClock`
  backs it with real time and :class:`ManualServiceClock` with an
  explicitly advanced counter, which is what makes the arrival-batching
  determinism contract testable (same arrivals, any batch size, identical
  verdicts).
"""

from __future__ import annotations

import time


class PinnedClock:
    """Deterministic wall clock: every call advances by a fixed tick.

    Injected as :attr:`repro.obs.config.ObsConfig.wall_clock` so the
    overhead metric O counts clock samples instead of real seconds.  The
    call sequence of an event-driven run is deterministic, hence so is O.
    Picklable (plain attributes) so configs carrying it cross the process
    boundary.  The configured instance is a template: every run counts on
    its own fresh copy, so one config replays identically any number of
    times.
    """

    def __init__(self, tick: float = 0.001) -> None:
        self.tick = tick
        self.count = 0

    def __call__(self) -> float:
        self.count += 1
        return self.count * self.tick

    def __repr__(self) -> str:
        # Stable across instances (no id()): configs carrying a pinned
        # clock repr identically, which checkpoint fingerprints rely on.
        return f"PinnedClock(tick={self.tick})"


class ServiceClock:
    """The time source the online service schedules against.

    Deliberately tiny: ``now()`` is all the batching and admission layers
    consume, so a test (or the deterministic load harness) can swap in a
    :class:`ManualServiceClock` and replay an arrival trace exactly.
    """

    def now(self) -> float:
        """Current service time in seconds (monotonic)."""
        raise NotImplementedError


class WallServiceClock(ServiceClock):
    """Real time (``time.monotonic``), for a service facing actual traffic."""

    __slots__ = ()

    def now(self) -> float:
        return time.monotonic()


class ManualServiceClock(ServiceClock):
    """Explicitly advanced time, for deterministic replay.

    ``advance_to`` enforces monotonicity so a shuffled arrival trace fails
    loudly instead of silently time-travelling the admission controller.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` (never backwards)."""
        if t < self._now:
            raise ValueError(f"manual clock cannot move backwards: {t} < {self._now}")
        self._now = float(t)
        return self._now

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds."""
        return self.advance_to(self._now + dt)

    def __repr__(self) -> str:
        return f"ManualServiceClock(now={self._now})"
