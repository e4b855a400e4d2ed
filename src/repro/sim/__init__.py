"""Discrete event simulation substrate.

A compact event-calendar kernel used to drive the open-system experiments
of the paper (Section VI): Poisson job arrivals, event-driven scheduler
invocations, and schedule-driven task execution.

Components
----------
* :class:`~repro.sim.kernel.Simulator` -- the event calendar: schedule
  callbacks at absolute/relative simulated times, then run to exhaustion
  or dispatch one event at a time.
* :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random streams (arrivals, task sizes, deadlines...) so experiments are
  reproducible and factor-at-a-time runs share common random numbers.
* :mod:`repro.sim.stats` -- replication control with Student-t confidence
  intervals, matching the paper's stopping rule (repeat until the CI of T is
  within ±1% of the mean at 95% confidence).
"""

from repro.sim.kernel import EventHandle, Simulator
from repro.sim.rng import Distributions, RandomStreams
from repro.sim.stats import ReplicationResult, mean_ci, run_replications

__all__ = [
    "Simulator",
    "EventHandle",
    "RandomStreams",
    "Distributions",
    "ReplicationResult",
    "mean_ci",
    "run_replications",
]
