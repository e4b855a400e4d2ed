"""Per-run observability configuration.

:class:`ObsConfig` is the declarative surface the CLI and
:class:`~repro.experiments.runner.RunConfig` expose: where to write the
trace, which wall clock to read, and --
via :class:`~repro.obs.timeseries.TelemetryConfig` -- whether to sample a
live telemetry series with SLO burn-rate alerting.  Logging is the CLI's
to install (:func:`repro.obs.logs.configure_logging`); the solver's
propagator profile is :attr:`repro.cp.solver.SolverParams.profile`.
:meth:`ObsConfig.make_tracer` turns it into the live
:class:`~repro.obs.trace.Tracer` a run threads through its layers;
:meth:`ObsConfig.make_sampler` builds the telemetry sampler (or hands out
the shared null sampler when telemetry is off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.clocks import PinnedClock
from repro.obs.timeseries import (
    NULL_SAMPLER,
    TelemetryConfig,
    TimeSeriesSampler,
)
from repro.obs.trace import NULL_TRACER, Tracer, TraceRecorder


@dataclass
class ObsConfig:
    """Observability knobs of one run (all off by default)."""

    #: Write a Chrome trace-event JSON here (a ``.jsonl`` event log is
    #: written alongside).  Setting this enables tracing.
    trace_out: Optional[str] = None
    #: Collect trace events in memory even without a ``trace_out`` path
    #: (tests and notebooks inspect ``tracer.recorder.events`` directly).
    trace: bool = False
    #: Injectable wall-clock source (None = ``time.perf_counter``).  Tests
    #: inject a deterministic clock here to pin the overhead metric O; a
    #: :class:`PinnedClock` is a template -- each run counts on its own copy.
    wall_clock: Optional[Callable[[], float]] = None
    #: Live telemetry sampling (None or ``enabled=False`` = off; the run
    #: then pays nothing -- the shared null sampler is handed out).  The
    #: stock :func:`repro.obs.slo.default_slos` are evaluated on it.
    telemetry: Optional[TelemetryConfig] = None

    @property
    def tracing_enabled(self) -> bool:
        """Whether a recorder should be attached to the run's tracer."""
        return self.trace or self.trace_out is not None

    @property
    def telemetry_enabled(self) -> bool:
        """Whether the run samples a live telemetry series."""
        return self.telemetry is not None and self.telemetry.enabled

    def make_tracer(self) -> Tracer:
        """Build the run's tracer.

        Disabled observability with a default clock returns the shared
        :data:`~repro.obs.trace.NULL_TRACER`; otherwise a fresh tracer is
        built so concurrent runs never share recorders.  Telemetry without
        tracing still gets a real registry -- the sampler scrapes it.
        """
        if (
            not self.tracing_enabled
            and self.wall_clock is None
            and not self.telemetry_enabled
        ):
            return NULL_TRACER
        recorder = TraceRecorder() if self.tracing_enabled else None
        registry = None
        if recorder is None and self.telemetry_enabled:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        return Tracer(
            recorder, wall_clock=_run_clock(self.wall_clock), registry=registry
        )

    def make_sampler(self) -> TimeSeriesSampler:
        """Build the run's telemetry sampler (the null one when off)."""
        if not self.telemetry_enabled:
            return NULL_SAMPLER
        return TimeSeriesSampler(self.telemetry)


def _run_clock(clock: Optional[Callable[[], float]]) -> Optional[Callable[[], float]]:
    """The clock one run reads: a configured :class:`PinnedClock` is copied
    so every run counts its own samples from zero (a config is a value,
    reusable for any number of runs); any other callable is used as given.
    """
    return PinnedClock(clock.tick) if isinstance(clock, PinnedClock) else clock
