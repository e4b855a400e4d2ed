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
* :mod:`repro.sim.stats` -- Student-t confidence intervals for the
  replicated metrics the figure tables print.
"""

from repro.sim.kernel import EventHandle, Simulator
from repro.sim.rng import Distributions, RandomStreams
from repro.sim.stats import mean_ci

__all__ = [
    "Simulator",
    "EventHandle",
    "RandomStreams",
    "Distributions",
    "mean_ci",
]
