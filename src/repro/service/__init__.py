"""Scheduling-as-a-service: the online admission-control front-end.

The paper's core loop -- on each job arrival, solve the CP matchmaking /
scheduling model and decide whether the job's SLA deadline can be met --
is exactly an admission-control service.  This package lifts that loop out
of the simulator and serves it against wall-clock traffic:

* :mod:`repro.service.schemas` -- typed request/response payloads
  (``JobSpec`` in, ``SlaQuote`` / ``JobStatus`` out) with strict JSON
  round-tripping under the ``repro-service/1`` schema.
* :mod:`repro.service.batching` -- the arrival-batching stage: bursts are
  coalesced into one re-plan pass, bounded by batch size and hold time,
  with overload shedding above a pending ceiling.
* :mod:`repro.service.admission` -- the admission controller: a
  schedule-once planner built on the shared scheduler invocation API
  (:mod:`repro.core.invocation`), solving every quote through the
  resilience degradation ladder.
* :mod:`repro.service.server` -- the asyncio front-end: in-process async
  API plus a dependency-free HTTP endpoint (``/submit``, ``/status``,
  ``/cancel``, ``/metrics``, ``/health``, ``/shutdown``).
* :mod:`repro.service.loadgen` -- the deterministic in-process load
  harness and the open-loop HTTP load generator behind
  ``mrcp-rm loadtest``.

Everything here runs on injectable clocks (:mod:`repro.obs.clocks`): a
manual service clock plus a pinned wall clock make admission verdicts --
and therefore the load-test behaviour pin -- byte-for-byte replayable.
"""

from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.batching import ArrivalBatcher, BatchingConfig
from repro.service.schemas import (
    SERVICE_SCHEMA,
    JobSpec,
    JobStatus,
    SlaQuote,
)
from repro.service.server import SchedulerService, ServiceConfig

__all__ = [
    "SERVICE_SCHEMA",
    "JobSpec",
    "SlaQuote",
    "JobStatus",
    "BatchingConfig",
    "ArrivalBatcher",
    "AdmissionConfig",
    "AdmissionController",
    "ServiceConfig",
    "SchedulerService",
]
