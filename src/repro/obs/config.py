"""Per-run observability configuration.

:class:`ObsConfig` is the declarative surface the CLI and
:class:`~repro.experiments.runner.RunConfig` expose: which log level to
install, where to write the trace, whether to profile the CP solver's
propagators, and -- via :class:`~repro.obs.timeseries.TelemetryConfig` --
whether to sample a live telemetry series with SLO burn-rate alerting.
:meth:`ObsConfig.make_tracer` turns it into the live
:class:`~repro.obs.trace.Tracer` a run threads through its layers;
:meth:`ObsConfig.make_sampler` builds the telemetry sampler (or hands out
the shared null sampler when telemetry is off).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from repro.obs.clocks import PinnedClock
from repro.obs.logs import configure_logging
from repro.obs.timeseries import (
    NULL_SAMPLER,
    TelemetryConfig,
    TimeSeriesSampler,
)
from repro.obs.slo import SloSpec
from repro.obs.trace import NULL_TRACER, Tracer, TraceRecorder


@dataclass
class ObsConfig:
    """Observability knobs of one run (all off by default)."""

    #: Install the repro log handler at this level (None = leave logging
    #: untouched; library code stays silent under the default NullHandler).
    log_level: Optional[str] = None
    #: Write a Chrome trace-event JSON here (a ``.jsonl`` event log is
    #: written alongside).  Setting this enables tracing.
    trace_out: Optional[str] = None
    #: Collect trace events in memory even without a ``trace_out`` path
    #: (tests and notebooks inspect ``tracer.recorder.events`` directly).
    trace: bool = False
    #: Per-propagator-class prune/fail counters and per-call propagation
    #: timing inside the CP engine (implied by tracing; this turns it on
    #: for untraced runs too).
    profile_solver: bool = False
    #: Record one :class:`~repro.core.mrcp_rm.PlanRecord` per scheduler
    #: invocation (MRCP-RM only).  Forensics -- per-job lateness
    #: attribution -- and the HTML run report consume the history.
    plan_history: bool = False
    #: Injectable wall-clock source (None = ``time.perf_counter``).  Tests
    #: inject a deterministic clock here to pin the overhead metric O; a
    #: :class:`PinnedClock` is a template -- each run counts on its own copy.
    wall_clock: Optional[Callable[[], float]] = None
    #: Live telemetry sampling (None or ``enabled=False`` = off; the run
    #: then pays nothing -- the shared null sampler is handed out).
    telemetry: Optional[TelemetryConfig] = None
    #: SLO specs evaluated against the telemetry samples (None = the
    #: stock :func:`repro.obs.slo.default_slos` set when telemetry is on).
    slo: Optional[Tuple[SloSpec, ...]] = None

    @property
    def tracing_enabled(self) -> bool:
        """Whether a recorder should be attached to the run's tracer."""
        return self.trace or self.trace_out is not None

    @property
    def telemetry_enabled(self) -> bool:
        """Whether the run samples a live telemetry series."""
        return self.telemetry is not None and self.telemetry.enabled

    def make_tracer(self) -> Tracer:
        """Build the run's tracer (and configure logging when asked).

        Disabled observability with a default clock returns the shared
        :data:`~repro.obs.trace.NULL_TRACER`; otherwise a fresh tracer is
        built so concurrent runs never share recorders.  Telemetry without
        tracing still gets a real registry -- the sampler scrapes it.
        """
        if self.log_level is not None:
            configure_logging(self.log_level)
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
        telemetry = self.telemetry
        return TimeSeriesSampler(
            replace(telemetry, wall_clock=_run_clock(telemetry.wall_clock))
        )


def _run_clock(clock: Optional[Callable[[], float]]) -> Optional[Callable[[], float]]:
    """The clock one run reads: a configured :class:`PinnedClock` is copied
    so every run counts its own samples from zero (a config is a value,
    reusable for any number of runs); any other callable is used as given.
    """
    return PinnedClock(clock.tick) if isinstance(clock, PinnedClock) else clock
