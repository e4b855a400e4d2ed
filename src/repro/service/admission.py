"""The admission controller: schedule-once SLA quoting.

Where the simulator's :class:`~repro.core.mrcp_rm.MrcpRm` re-plans every
open job on each arrival (Table 2), the service quotes each candidate
*once* against the already-committed plan:

1. retire committed assignments that ended at or before the candidate's
   arrival tick (their slots are free again);
2. plan **the candidate alone** on top of the committed plan (a
   :class:`~repro.core.matchmaking.FrozenBase` kept for the controller's
   lifetime) through the degradation ladder with a tight fail limit --
   straight on the base's slot profiles when the warm start closes there,
   else by solving its Table 1 model -- place it on the base's slots and
   validate it.  Committed work mostly starts in the *future*, where
   best-gap placement can fail on a capacity-feasible schedule: the quote
   is then ``infeasible``, as it is for a plan that fails validation;
3. admit iff the predicted completion meets the deadline: the placement
   stays booked, so later quotes plan around it; otherwise it is released.

The schedule-once discipline is what makes a quote a *promise*: admitted
work is never re-planned, so a later burst cannot invalidate an earlier
quote.  The price is conservatism -- a job rejected now might have fit
had everything been re-packed -- which is the classic admission-control
trade (see docs/SERVICE.md for the comparison with the simulator loop).

Determinism: every candidate is solved at ``now = ceil(arrival)`` of
*its own* arrival, in submission order.  Batching upstream changes how
many candidates share one flush, never the ``now`` each one sees --
hence verdicts are invariant under batch size (property-tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.invocation import solve_invocation, extract_assignments
from repro.core.matchmaking import FrozenBase
from repro.core.schedule import Schedule, SchedulingError, TaskAssignment
from repro.core.schedule import validate_schedule
from repro.cp.solver import CpSolver, SolverParams
from repro.obs.logs import get_logger, kv
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import Tracer
from repro.resilience.breaker import DegradationLadder, LadderConfig
from repro.service.schemas import (
    ADMITTED,
    CANCELLED,
    COMPLETED,
    REJECTED,
    JobSpec,
    JobStatus,
    SlaQuote,
)
from repro.workload.entities import Resource

_LOG = get_logger("service.admission")

#: Admission-latency buckets (milliseconds): quoting is a sub-second
#: operation by design, so the buckets resolve the 1ms..1s range.
ADMISSION_LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000)


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the quoting solve (not of the batching stage).

    Quotes are solved on the Section V.D combined formulation.
    """

    #: Solver budget per quote.  Deliberately tight: a quote must be fast,
    #: and the ladder's lower rungs catch the hard instances.
    solver_params: SolverParams = field(
        default_factory=lambda: SolverParams(
            time_limit=1.0, tree_fail_limit=200, use_lns=False
        )
    )
    ladder: LadderConfig = field(default_factory=LadderConfig)


@dataclass
class _CommittedJob:
    """Book-keeping for one admitted job."""

    quote: SlaQuote
    #: As admitted; the ones not yet retired are still in the base.
    assignments: List[TaskAssignment]
    cancelled: bool = False


class AdmissionController:
    """Quotes submissions against the committed plan (single-threaded).

    The controller is synchronous and owns no clock of its own: callers
    hand in the candidate's service-time arrival.  ``wall_clock`` is only
    used to measure per-quote solve latency and is injectable so
    deterministic replays can pin it (:class:`repro.obs.clocks.PinnedClock`).
    """

    def __init__(
        self,
        resources: Sequence[Resource],
        config: Optional[AdmissionConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not resources:
            raise ValueError("admission needs at least one resource")
        self.resources = list(resources)
        self.config = config or AdmissionConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.wall_clock = wall_clock or time.perf_counter
        self._solver = CpSolver(self.config.solver_params)
        self._ladder = DegradationLadder(
            self.config.ladder, self._solver, Tracer(registry=self.registry)
        )
        #: The committed plan: every admitted, uncancelled, unretired task.
        self._base = FrozenBase(self.resources)
        self._jobs: Dict[str, _CommittedJob] = {}
        self.committed_count = 0
        self._rejected: Dict[str, SlaQuote] = {}
        self._next_numeric_id = 1
        self._m_requests = self.registry.counter("service.requests")
        self._m_admitted = self.registry.counter("service.admitted")
        self._m_rejected = self.registry.counter("service.rejected")
        self._m_shed = self.registry.counter("service.shed")
        self._m_committed = self.registry.gauge("service.committed_jobs")
        self._m_latency = self.registry.histogram(
            "service.admission_latency_ms", ADMISSION_LATENCY_BUCKETS_MS
        )

    # ------------------------------------------------------------- quoting
    def quote(
        self, spec: JobSpec, arrival: float, start_rung: str = "cp_full"
    ) -> SlaQuote:
        """Quote one submission arriving at service time ``arrival``.

        ``start_rung`` is the overload fast-path: the server passes
        ``cp_limited`` when its queue is deep, skipping the full solve.
        """
        t0 = self.wall_clock()
        now = int(ceil(arrival))
        self._m_requests.inc()
        job_id = spec.job_id
        if job_id in self._jobs or job_id in self._rejected:
            return self._finish(job_id, False, "duplicate", None, None, "none", now, t0)
        self._base.retire(now)
        candidate = spec.to_job(self._next_numeric_id, now)
        try:
            outcome, formulation = solve_invocation(
                [candidate],
                self.resources,
                now,
                base=self._base,
                solver=self._solver,
                ladder=self._ladder,
                start_rung=start_rung,
            )
        except SchedulingError as exc:
            # No model could be built: reject rather than crash the service.
            _LOG.warning("quote solve failed %s", kv(job=job_id, err=str(exc)))
            return self._finish(
                job_id, False, "infeasible", None, None, "none", now, t0
            )
        if not outcome:
            return self._finish(
                job_id, False, "infeasible", None, None, outcome.rung, now, t0
            )
        try:
            mine = extract_assignments(
                formulation, outcome.solution, (), self.resources, self._base
            )
            # The base refused overlap with committed work; the candidate's
            # own constraints are checked here, whichever rung planned it.
            plan = Schedule({a.task.id: a for a in mine})
            problems = validate_schedule(plan, [candidate], self.resources, now)
            if problems:
                self._base.remove(mine)
                raise SchedulingError(f"invalid plan: {problems[0]}")
        except SchedulingError as exc:
            _LOG.warning("plan refused %s", kv(job=job_id, err=str(exc)))
            return self._finish(
                job_id, False, "infeasible", None, None, outcome.rung, now, t0
            )
        deadline = candidate.deadline
        completion = max(a.end for a in mine)
        admitted = completion <= deadline
        if not admitted:
            self._base.remove(mine)  # the placement stays booked only if admitted
        reason = "deadline_met" if admitted else "deadline_missed"
        quote = self._finish(
            job_id, admitted, reason, completion, deadline, outcome.rung, now, t0
        )
        if admitted:
            self._next_numeric_id += 1
            self._jobs[job_id] = _CommittedJob(quote, mine)
            self.committed_count += 1
            self._m_committed.set(float(self.committed_count))
        return quote

    def shed(self, spec: JobSpec, arrival: float) -> SlaQuote:
        """Reject without solving (batcher refused the submission)."""
        t0 = self.wall_clock()
        now = int(ceil(arrival))
        self._m_requests.inc()
        self._m_shed.inc()
        return self._finish(
            spec.job_id, False, "overload_shed", None, None, "none", now, t0
        )

    def invalid(self, job_id: str, arrival: float, error: str) -> SlaQuote:
        """Record a validation rejection (payload never reached the batcher)."""
        t0 = self.wall_clock()
        now = int(ceil(arrival))
        self._m_requests.inc()
        _LOG.warning("invalid submission %s", kv(job=job_id, err=error))
        return self._finish(job_id, False, "invalid", None, None, "none", now, t0)

    def _finish(
        self,
        job_id: str,
        admitted: bool,
        reason: str,
        completion: Optional[int],
        deadline: Optional[int],
        rung: str,
        now: int,
        t0: float,
    ) -> SlaQuote:
        solve_ms = (self.wall_clock() - t0) * 1000.0
        quote = SlaQuote(
            job_id=job_id,
            admitted=admitted,
            reason=reason,
            predicted_completion=completion,
            deadline=deadline,
            rung=rung,
            solve_ms=solve_ms,
            arrival=now,
        )
        if admitted:
            self._m_admitted.inc()
        else:
            self._m_rejected.inc()
            if reason == "invalid":  # a known job keeps its first verdict
                self._rejected.setdefault(job_id, quote)
            elif reason != "duplicate":
                self._rejected[job_id] = quote
        self._m_latency.observe(solve_ms)
        return quote

    # ------------------------------------------------------------ lifecycle
    def cancel(self, job_id: str, now: float) -> bool:
        """Cancel an admitted job: frees its remaining planned slots."""
        job = self._jobs.get(job_id)
        if job is None or job.cancelled:
            return False
        tick = int(ceil(now))
        live = self._live(job)
        if all(a.end <= tick for a in live):
            return False  # already completed: nothing left to cancel
        job.cancelled = True
        self._base.remove(live)
        self.committed_count -= 1
        self._m_committed.set(float(self.committed_count))
        return True

    def status(self, job_id: str, now: float) -> Optional[JobStatus]:
        """Lifecycle snapshot, or None for an unknown job."""
        tick = int(ceil(now))
        job = self._jobs.get(job_id)
        if job is not None:
            if job.cancelled:
                return JobStatus(job_id, CANCELLED, job.quote)
            remaining = [
                (a.task.id, a.start, a.end) for a in self._live(job) if a.end > tick
            ]
            if not remaining and (
                job.quote.predicted_completion is None
                or job.quote.predicted_completion <= tick
            ):
                return JobStatus(job_id, COMPLETED, job.quote)
            return JobStatus(job_id, ADMITTED, job.quote, planned=remaining)
        quote = self._rejected.get(job_id)
        if quote is not None:
            return JobStatus(job_id, REJECTED, quote)
        return None

    def _live(self, job: _CommittedJob) -> List[TaskAssignment]:
        """The job's assignments still in the base (not retired, cancelled)."""
        live = self._base.live
        return [a for a in job.assignments if live.get(a.task.id) is a]
