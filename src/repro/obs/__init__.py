"""Observability: tracing, metrics, telemetry, forensics, reports and diffs.

The paper's evaluation hinges on knowing *where* scheduling overhead O is
spent and *why* a job missed its deadline.  The package surface is the two
names every run touches, :class:`~repro.obs.config.ObsConfig` and
:func:`~repro.obs.logs.configure_logging`; everything else is imported from
its module, so a run that renders no report never loads the report code.

Primitives the rest of the system reports into:

* :mod:`repro.obs.config` -- :class:`ObsConfig`, one run's observability
  knobs, which builds the run's tracer and telemetry sampler.
* :mod:`repro.obs.trace` -- span-based tracing emitting Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``) plus a JSONL event log;
  zero-overhead no-op when disabled.
* :mod:`repro.obs.metrics` -- run-scoped counters, gauges and fixed-bucket
  histograms.
* :mod:`repro.obs.logs` -- structured ``logging`` under the ``repro.*``
  namespace with an idempotent :func:`configure_logging`.
* :mod:`repro.obs.clocks` -- the pinned wall clock and the service clocks.
* :mod:`repro.obs.timeseries` -- bounded telemetry series sampled on the
  sim calendar or on the service clock, and their JSONL files.

Built on top of those:

* :mod:`repro.obs.conformance` -- strict Chrome trace-event validation.
* :mod:`repro.obs.export` -- OpenMetrics/Prometheus text rendering of the
  metrics registry and sampled series, plus a strict format validator.
* :mod:`repro.obs.slo` -- declarative SLOs with multi-window burn-rate
  alerting over the sampled series.
* :mod:`repro.obs.forensics` -- per-job lateness attribution (why was each
  late job late: contention vs solver vs faults vs execution).
* :mod:`repro.obs.structdiff` -- shared leaf-level structural diff over
  JSON-like values (checkpoint compare, behaviour pins, run diffs).
* :mod:`repro.obs.diff` -- the deterministic run-diff engine: event
  alignment and plan histories localise the first divergence; per-job
  delta waterfalls, sweep and series diffs explain it.
* :mod:`repro.obs.htmlkit` -- the page shell, CSS, tables, legends and
  time-axis charts every HTML report is built from.
* :mod:`repro.obs.report` -- the run and sweep reports (Gantt,
  utilization, slack waterfall, solver tables).
* :mod:`repro.obs.diffreport` -- the run-diff report.

See ``docs/OBSERVABILITY.md`` for how to capture and read a trace and
how to diff two runs.
"""

from repro.obs.config import ObsConfig
from repro.obs.logs import configure_logging

__all__ = ["ObsConfig", "configure_logging"]
