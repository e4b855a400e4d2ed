"""The MRCP-RM resource manager (Table 2 + Sections V.D/V.E).

Lifecycle inside the discrete event simulation:

1. Users submit jobs (:meth:`MrcpRm.submit`); arrivals are recorded and --
   with the Section V.E optimisation -- jobs whose earliest start time lies
   beyond the lookahead window are parked until close to their start.
2. On every scheduling trigger the Table 2 algorithm runs: earliest start
   times are clamped to "now", completed tasks are dropped, started tasks
   are frozen, a fresh CP model over all remaining tasks is built and
   solved, and the resulting schedule (decomposed onto physical resources in
   combined mode) is installed on the executor.
3. The wall-clock cost of step 2 is recorded as the overhead metric ``O``.

Configuration covers every ablation the paper motivates: formulation mode
(combined vs joint), EST deferral on/off, re-planning vs schedule-once, job
ordering strategy, and the CP solver budget.

Fault recovery (:mod:`repro.faults`) rides on the same loop: a failed or
killed task simply re-enters the unstarted set and the next trigger
re-plans it; a resource outage shrinks the pool :func:`build_model` sees
until its recovery event re-grows it; and a CP solve that comes back empty
degrades to the EDF warm-start list schedule instead of crashing the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.executor import ScheduledExecutor
from repro.core.formulation import FormulationMode
from repro.core.invocation import (
    InvocationOutcome,
    extract_assignments,
    solve_invocation,
)
from repro.core.matchmaking import FrozenBase
from repro.core.schedule import (
    Schedule,
    SchedulingError,
    TaskAssignment,
    validate_schedule,
)
from repro.cp.solver import CpSolver, SolverParams
from repro.faults import FaultInjector, FaultModel
from repro.metrics.collector import MetricsCollector
from repro.obs.logs import get_logger, kv
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.breaker import DegradationLadder, LadderConfig
from repro.sim.kernel import PRIORITY_ACQUIRE, Simulator
from repro.workload.entities import Job, Resource

_LOG = get_logger("core.mrcp_rm")


def _default_solver_params() -> SolverParams:
    """A per-invocation budget suited to open-system operation.

    The warm-start fast path (0 late jobs proves optimality) handles the
    vast majority of invocations; the budget below caps the hard ones.
    """
    return SolverParams(time_limit=0.5, tree_fail_limit=500)


@dataclass(frozen=True)
class PlanRecord:
    """One scheduler invocation's footprint in the plan history.

    Recorded when :attr:`MrcpRmConfig.record_plan_history` is on; the
    sequence of records is the input to lateness forensics
    (:mod:`repro.obs.forensics`): it carries the wall-clock overhead of
    each invocation stamped with its simulated time (so per-job solver
    delay can be windowed) and the earliest planned start per job (so plan
    slippage across re-plans is visible).
    """

    #: Planning instant (``ceil(sim.now)`` -- the Table 2 "now").
    t: int
    #: Invocation outcome: ``"installed"`` / ``"no_jobs"`` / ``"stalled"``.
    outcome: str
    #: Wall-clock seconds this invocation took (one overhead-O sample).
    overhead: float
    #: What fired the trigger: ``"submit"`` / ``"release"`` / ``"recovery"``.
    trigger: str
    #: Job id -> earliest start over its not-yet-completed plan entries
    #: (started tasks keep their real start; unstarted their planned one).
    planned_starts: Dict[int, int]
    #: Degradation-ladder rung that produced the plan (``"cp_full"`` when
    #: no ladder is configured or the invocation installed nothing).
    rung: str = "cp_full"


@dataclass
class MrcpRmConfig:
    """Behavioural knobs of the resource manager."""

    #: Combined (Section V.D fast path) or joint (plain Table 1) model.
    mode: FormulationMode = FormulationMode.COMBINED
    #: Job ordering the warm-start heuristics try first ("edf", "laxity",
    #: "input" = job-id order); the paper reports EDF marginally best.
    ordering: str = "edf"
    #: Section V.E: defer jobs whose earliest start time is in the future.
    est_deferral: bool = True
    #: Seconds before a deferred job's earliest start at which it becomes
    #: eligible for scheduling ("close to arriving").
    lookahead: int = 0
    #: Re-plan all unstarted tasks on each trigger (Table 2).  False gives
    #: the schedule-once ablation: each job is scheduled on arrival and
    #: never revisited.
    replan: bool = True
    #: Seed each solve with the previous plan as a solution hint -- the
    #: "incrementally builds on the previous solution (if one is available)"
    #: behaviour of Fig. 1.  Improves schedule stability and lets the warm
    #: start skip work when the new arrival fits around the old plan.
    use_hints: bool = True
    #: CP solver budget per invocation.
    solver: SolverParams = field(default_factory=_default_solver_params)
    #: Fault scenario to inject (None / inert model = the happy path).
    faults: Optional[FaultModel] = None
    #: Recovery policy: how many failed attempts of one task are retried
    #: before its job is declared failed (outage kills count as attempts).
    max_task_retries: int = 3
    #: Seconds to wait after a task failure before the recovery re-plan
    #: (0 = re-plan at the failure instant).
    retry_backoff: float = 0.0
    #: Keep a :class:`PlanRecord` per invocation in
    #: :attr:`MrcpRm.plan_history` (O(active jobs) per trigger; off by
    #: default so large sweeps pay nothing).  Forensics and the run report
    #: consume the history.
    record_plan_history: bool = False
    #: Circuit-breaker degradation ladder around the CP solver (None = one
    #: plain solve with its EDF list-schedule fallback).  When set, every
    #: solve walks cp_full -> cp_limited -> edf -> greedy under per-rung
    #: breakers; see :mod:`repro.resilience.breaker`.
    resilience: Optional[LadderConfig] = None


class MrcpRm:
    """MapReduce Constraint Programming based Resource Manager."""

    def __init__(
        self,
        sim: Simulator,
        resources: Sequence[Resource],
        config: Optional[MrcpRmConfig] = None,
        metrics: Optional[MetricsCollector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.resources = list(resources)
        self.config = config or MrcpRmConfig()
        self.metrics = metrics or MetricsCollector()
        #: Observability front-end (the shared disabled tracer by default).
        #: Overhead O is measured through ``tracer.wall_clock`` so tests can
        #: inject a deterministic clock with or without tracing.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = self.tracer.wall_clock
        registry = self.tracer.registry
        self._m_invocations = registry.counter("scheduler.invocations")
        self._m_overhead = registry.histogram("scheduler.overhead_seconds")
        self._m_replans = registry.counter("scheduler.replans_on_failure")
        self._m_fallbacks = registry.counter("scheduler.fallback_solves")
        faults = self.config.faults
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None and faults.enabled:
            if not self.config.replan:
                raise ValueError(
                    "fault injection requires replan=True: recovery re-plans "
                    "failed tasks as unstarted work"
                )
            self.fault_injector = FaultInjector(
                faults, self.resources, registry=registry
            )
        self.executor = ScheduledExecutor(
            sim,
            self.resources,
            metrics=self.metrics,
            on_job_complete=self._job_done,
            fault_injector=self.fault_injector,
            on_task_failed=(
                self._task_failed if self.fault_injector is not None else None
            ),
            on_task_perturbed=(
                self._task_perturbed
                if self.fault_injector is not None
                else None
            ),
            tracer=self.tracer,
        )
        self._solver = CpSolver(self._solver_params(), tracer=self.tracer)
        self.ladder: Optional[DegradationLadder] = None
        if self.config.resilience is not None:
            self.ladder = DegradationLadder(
                self.config.resilience, self._solver, self.tracer
            )
        #: rung of the most recent ladder-mediated solve ("cp_full" outside
        #: ladder mode) -- surfaced in the plan history for forensics.
        self._last_rung = "cp_full"
        self._active: Dict[int, Job] = {}
        self._deferred: Dict[int, Job] = {}
        #: effective earliest start per job (Table 2 lines 1-4 clamp this,
        #: never the job's SLA field -- metrics use the original s_j).
        self._effective_est: Dict[int, int] = {}
        #: jobs whose retry budget ran out (no longer planned or completed)
        self._failed_jobs: Set[int] = set()
        #: per-resource count of outage windows currently covering "now"
        #: (overlapping windows compose; offline while the count is > 0)
        self._outage_depth: Dict[int, int] = {}
        self._fault_replan_pending = False
        #: The run's slot book; dropped when the online pool changes.
        self._base: Optional[FrozenBase] = None
        #: set when a trigger fired with zero online resources; the next
        #: recovery event runs the postponed re-plan.
        self._stalled = False
        #: one :class:`PlanRecord` per invocation (empty unless
        #: ``config.record_plan_history``); consumed by forensics/reports.
        self.plan_history: List[PlanRecord] = []
        if self.fault_injector is not None:
            self.metrics.enable_fault_tracking()
            for w in self.fault_injector.outage_windows():
                sim.schedule_at(
                    w.start, lambda rid=w.resource_id: self._resource_down(rid)
                )
                sim.schedule_at(
                    w.end, lambda rid=w.resource_id: self._resource_up(rid)
                )

    def attach_telemetry(self, sampler) -> None:
        """Register the scheduler's live probes on the telemetry sampler.

        Probes are read at every sampling instant: queue depth (active +
        deferred jobs awaiting completion), the active/deferred split, and
        -- in ladder mode -- how many circuit breakers are currently open.
        The executor contributes its slot-occupancy probes as well.  A
        disabled (null) sampler makes this a no-op.
        """
        if not sampler.enabled:
            return
        sampler.add_probe(
            "scheduler.queue_depth",
            lambda: float(len(self._active) + len(self._deferred)),
        )
        sampler.add_probe(
            "scheduler.active_jobs", lambda: float(len(self._active))
        )
        sampler.add_probe(
            "scheduler.deferred_jobs", lambda: float(len(self._deferred))
        )
        ladder = self.ladder
        if ladder is not None:
            from repro.resilience.breaker import OPEN

            sampler.add_probe(
                "resilience.breakers_open",
                lambda: float(
                    sum(
                        1
                        for b in ladder.breakers.values()
                        if b.state == OPEN
                    )
                ),
            )
            sampler.add_probe(
                "resilience.breaker_opened_total",
                lambda: float(ladder.opened_total),
            )
        self.executor.attach_telemetry(sampler)

    def _solver_params(self) -> SolverParams:
        params = self.config.solver
        ordering = self.config.ordering
        orders = [ordering] + [o for o in ("edf", "laxity", "input") if o != ordering]
        from dataclasses import replace

        return replace(params, warm_start_orders=tuple(orders))

    # -------------------------------------------------------------- intake
    def submit(self, job: Job) -> None:
        """A user submits a job at the current simulation time."""
        now = math.ceil(self.sim.now)
        self.metrics.job_arrived(job)
        self.executor.register_job(job)
        self._effective_est[job.id] = max(job.earliest_start, now)
        if (
            self.config.est_deferral
            and job.earliest_start > now + self.config.lookahead
        ):
            self._deferred[job.id] = job
            release_at = job.earliest_start - self.config.lookahead
            self.sim.schedule_at(release_at, lambda j=job: self._release(j))
        else:
            self._active[job.id] = job
            self._run_scheduler(trigger_jobs=[job])

    def _release(self, job: Job) -> None:
        if self._deferred.pop(job.id, None) is None:
            return
        self._active[job.id] = job
        self._run_scheduler(trigger_jobs=[job], trigger="release")

    def _job_done(self, job: Job) -> None:
        self._active.pop(job.id, None)
        self._effective_est.pop(job.id, None)

    # --------------------------------------------------------- the algorithm
    def _run_scheduler(
        self, trigger_jobs: Sequence[Job], trigger: str = "submit"
    ) -> None:
        """One Table 2 invocation; wall time is recorded as overhead O.

        This wrapper owns the observability envelope -- the overhead
        measurement (via the injectable ``tracer.wall_clock``), the
        ``scheduler.invocation`` span, the registry instruments, the plan
        history and the structured log line -- around :meth:`_invoke`,
        which holds the actual algorithm.
        """
        tracer = self.tracer
        t0 = self._clock()
        self._last_rung = "cp_full"
        args = None
        if tracer.enabled:
            args = {
                "trigger_jobs": [j.id for j in trigger_jobs],
                "active_jobs": len(self._active),
                "trigger": trigger,
            }
        with tracer.span("scheduler.invocation", "scheduler", args) as span:
            outcome = self._invoke(trigger_jobs)
            if tracer.enabled:
                span.add(outcome=outcome)
        elapsed = self._clock() - t0
        self._m_invocations.inc()
        self._m_overhead.observe(elapsed)
        self.metrics.record_overhead(elapsed, sim_time=self.sim.now)
        if self.config.record_plan_history:
            self.plan_history.append(
                PlanRecord(
                    t=math.ceil(self.sim.now),
                    outcome=outcome,
                    overhead=elapsed,
                    trigger=trigger,
                    planned_starts=self._planned_starts_by_job(),
                    rung=self._last_rung,
                )
            )
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug(
                "invocation %s",
                kv(
                    t=self.sim.now,
                    outcome=outcome,
                    triggers=len(trigger_jobs),
                    active=len(self._active),
                    overhead=elapsed,
                ),
            )

    def _invoke(self, trigger_jobs: Sequence[Job]) -> str:
        """The Table 2 algorithm proper; returns the invocation outcome
        (``"no_jobs"`` / ``"stalled"`` / ``"installed"``) for the span and
        log line."""
        # Fault events land at fractional times; movable starts must not be
        # rounded into the past, so the planning instant rounds *up*.
        now = math.ceil(self.sim.now)

        # Lines 1-4: clamp effective earliest start times to now.
        jobs = [j for j in self._active.values() if not j.is_completed]
        for j in jobs:
            if self._effective_est[j.id] < now:
                self._effective_est[j.id] = now

        if not self.config.replan:
            jobs = [j for j in trigger_jobs if not j.is_completed]
        if not jobs:
            return "no_jobs"

        resources = self._online_resources()
        if not resources:
            # Total outage: nothing can be planned.  Park the work and let
            # the next recovery event resume scheduling.
            self._stalled = True
            return "stalled"

        # Lines 5-18: frozen set = started-but-uncompleted tasks; in the
        # schedule-once ablation, previously planned tasks freeze too.
        running = self.executor.snapshot_running()
        if not self.config.replan:
            running = running + self.executor.planned_unstarted()
        if self._base is None:
            joint = self.config.mode is FormulationMode.JOINT
            self._base = FrozenBase(resources, joint)
        self._base.sync(running)

        assignments = self._solve(jobs, running, now, resources)

        schedule = Schedule()
        for a in assignments:
            schedule.add(a)
        frozen_ids = {a.task.id for a in running}
        problems = validate_schedule(
            schedule,
            jobs,
            resources,
            now=None,  # frozen starts legitimately precede now
            frozen_task_ids=frozen_ids,
        )
        # Effective ESTs may exceed the SLA field; re-check movable
        # starts against them.
        for a in assignments:
            if a.task.id in frozen_ids:
                continue
            est = self._effective_est.get(a.task.job_id)
            if est is not None and a.start < est:
                problems.append(
                    f"task {a.task.id}: start {a.start} before effective "
                    f"EST {est}"
                )
        if problems:
            raise SchedulingError(
                "invalid schedule produced:\n  " + "\n  ".join(problems)
            )

        self.executor.install(assignments, replace=self.config.replan)
        return "installed"

    def _solve(
        self,
        jobs: List[Job],
        running: List[TaskAssignment],
        now: int,
        resources: Optional[Sequence[Resource]] = None,
    ) -> List[TaskAssignment]:
        """Lines 19-24: build the OPL-equivalent model, solve, extract.

        The build/solve/extract core is the caller-agnostic invocation API
        (:mod:`repro.core.invocation`, shared with the online admission
        service); this method owns the simulator-side envelope around it --
        the previous-plan hint, the metric folding, and the crash-on-failure
        policy.  ``resources`` is the currently-online pool (defaults to
        all); outages shrink it and recoveries re-grow it between
        invocations.
        """
        if resources is None:
            resources = self.resources
        clamped = [self._clamped_view(j, now) for j in jobs]
        hint_starts: Optional[Dict[str, int]] = None
        if self.config.use_hints and self.config.replan:
            # Previous plan entries for tasks that are still movable and
            # whose planned start has not slipped into the past (the past-
            # start filter is applied inside solve_invocation).
            hint_starts = {
                a.task.id: a.start for a in self.executor.planned_unstarted()
            }
        opened_before = self.ladder.opened_total if self.ladder else 0
        outcome, formulation = solve_invocation(
            clamped,
            resources,
            now,
            running=running,
            mode=self.config.mode,
            solver=self._solver,
            ladder=self.ladder,
            hint_starts=hint_starts,
        )
        self._fold_solve_metrics(outcome, opened_before, now, jobs)
        if outcome.solution is None:
            raise SchedulingError(
                outcome.describe_failure(now, jobs, len(running))
            )
        return extract_assignments(
            formulation, outcome.solution, running, resources, self._base
        )

    def _fold_solve_metrics(
        self,
        outcome: InvocationOutcome,
        opened_before: int,
        now: int,
        jobs: List[Job],
    ) -> None:
        """Fold one invocation's solve outcome into the metric contract.

        CP stats and profile count whenever a CP strategy ran; a plan from
        the EDF list schedule -- the plain path's fallback or the ladder's
        ``edf`` rung -- counts as one ``fallback_solves``.
        """
        metrics = self.metrics
        if outcome.result is not None:
            metrics.record_solve(outcome.result)
        if self.ladder is not None:
            for _ in range(self.ladder.opened_total - opened_before):
                metrics.breaker_opened()
            if outcome.solution is not None:
                self._last_rung = outcome.rung
                metrics.ladder_solve(outcome.rung)
        if outcome.fallback and outcome.solution is not None:
            self._m_fallbacks.inc()
            metrics.fallback_solve()
            if self.ladder is None:  # the ladder logs its degraded solves
                status = outcome.result.status.value if outcome.result else "none"
                _LOG.warning(
                    "fallback solve %s",
                    kv(t=now, status=status, jobs=len(jobs)),
                )

    def _planned_starts_by_job(self) -> Dict[int, int]:
        """Earliest (planned or actual) start per job in the current plan."""
        starts: Dict[int, int] = {}
        for a in self.executor.planned_unstarted():
            prev = starts.get(a.task.job_id)
            if prev is None or a.start < prev:
                starts[a.task.job_id] = a.start
        for a in self.executor.snapshot_running():
            prev = starts.get(a.task.job_id)
            if prev is None or a.start < prev:
                starts[a.task.job_id] = a.start
        return starts

    def _clamped_view(self, job: Job, now: int) -> Job:
        """A shallow view of the job with the clamped effective EST.

        The SLA's ``earliest_start`` is preserved for metrics; the model
        sees ``max(s_j, now)`` per Table 2 lines 1-4.
        """
        est = self._effective_est.get(job.id, max(job.earliest_start, now))
        return job.with_earliest_start(est)

    # ---------------------------------------------------- fault recovery
    def _online_resources(self) -> List[Resource]:
        """The resource pool as the next model build should see it."""
        if self.fault_injector is None:
            return self.resources
        return [
            r
            for r in self.resources
            if self._outage_depth.get(r.id, 0) <= 0
        ]

    def _task_failed(self, a: TaskAssignment, reason: str) -> None:
        """Executor callback: a running attempt died (fault or outage kill).

        The task is already back in the unstarted set; recovery either
        re-queues it through a (possibly backed-off) re-plan or -- once the
        retry budget is spent -- declares the whole job failed.
        """
        job = self.executor.jobs.get(a.task.job_id)
        if job is None or job.id in self._failed_jobs:
            return  # job already given up on; nothing left to recover
        if a.task.attempts > self.config.max_task_retries:
            self._give_up(job)
            return
        _LOG.warning(
            "task failed %s",
            kv(
                t=self.sim.now,
                task=a.task.id,
                job=a.task.job_id,
                reason=reason,
                attempts=a.task.attempts,
            ),
        )
        self.metrics.task_retry()
        self._schedule_fault_replan(self.config.retry_backoff)

    def _task_perturbed(self, a: TaskAssignment) -> None:
        """Executor callback: an attempt's actual duration differs from plan.

        The plan suffix was computed against the old duration; re-plan so
        successors move out of (stragglers) or into (speedups) the gap.
        """
        self._schedule_fault_replan(0.0)

    def _give_up(self, job: Job) -> None:
        """Retry budget exhausted: declare ``job`` failed and move on."""
        _LOG.error(
            "job abandoned %s",
            kv(t=self.sim.now, job=job.id, retries=self.config.max_task_retries),
        )
        self._failed_jobs.add(job.id)
        self._active.pop(job.id, None)
        self._deferred.pop(job.id, None)
        self._effective_est.pop(job.id, None)
        self.executor.abandon_job(job.id)
        self.metrics.job_failed(job, self.sim.now)
        # Remaining jobs inherit the freed capacity at the next re-plan.
        self._schedule_fault_replan(0.0)

    def _schedule_fault_replan(self, delay: float) -> None:
        """Coalesce fault-triggered re-plans into one event per instant.

        An outage killing ten tasks queues *one* recovery re-plan, scheduled
        at acquire priority so all same-instant transitions land first.
        """
        if self._fault_replan_pending:
            return
        self._fault_replan_pending = True
        self.sim.schedule(delay, self._fault_replan, PRIORITY_ACQUIRE)

    def _fault_replan(self) -> None:
        """The coalesced recovery trigger: one Table 2 invocation."""
        self._fault_replan_pending = False
        if not self._active:
            return  # nothing left to re-plan (e.g. recovery after drain)
        if not self._online_resources():
            self._stalled = True
            return
        self._m_replans.inc()
        _LOG.info(
            "recovery replan %s",
            kv(t=self.sim.now, active=len(self._active)),
        )
        self.metrics.replan_on_failure()
        self._run_scheduler(
            trigger_jobs=list(self._active.values()), trigger="recovery"
        )

    def _resource_down(self, resource_id: int) -> None:
        """Outage window opens: kill the node's tasks, shrink the pool."""
        depth = self._outage_depth.get(resource_id, 0)
        self._outage_depth[resource_id] = depth + 1
        if depth > 0:
            return  # already down (overlapping windows)
        _LOG.warning(
            "resource outage %s", kv(t=self.sim.now, resource=resource_id)
        )
        self.tracer.instant(
            "fault.outage",
            "fault",
            args={"resource": resource_id},
            sim_track=True,
        )
        self.metrics.outage_started()
        self.executor.fail_resource(resource_id)
        self._base = None
        # Even with no running victims, pending plan entries on the node
        # were dropped -- re-plan them elsewhere.
        self._schedule_fault_replan(0.0)

    def _resource_up(self, resource_id: int) -> None:
        """Outage window closes: re-grow the pool, resume stalled work."""
        depth = self._outage_depth.get(resource_id, 0) - 1
        self._outage_depth[resource_id] = depth
        if depth > 0:
            return  # still covered by another window
        _LOG.info(
            "resource recovered %s", kv(t=self.sim.now, resource=resource_id)
        )
        self.tracer.instant(
            "fault.recovery",
            "fault",
            args={"resource": resource_id},
            sim_track=True,
        )
        self.executor.restore_resource(resource_id)
        self._base = None
        self._stalled = False
        self._schedule_fault_replan(0.0)

    # ------------------------------------------------------------- queries
    @property
    def active_jobs(self) -> List[Job]:
        return list(self._active.values())

    @property
    def failed_jobs(self) -> List[int]:
        """Ids of jobs declared failed after exhausting their retries."""
        return sorted(self._failed_jobs)

    # ------------------------------------------------------ checkpointing
    def resilience_state(self) -> Dict[str, object]:
        """The manager's complete mutable bookkeeping as JSON-safe data.

        Captured into checkpoints and strictly compared after a restore's
        replay, so every field that influences future decisions must appear
        here (a drifted field would otherwise silently fork the replay).
        """
        state: Dict[str, object] = {
            "active": sorted(self._active),
            "deferred": sorted(self._deferred),
            "effective_est": {
                str(k): v for k, v in sorted(self._effective_est.items())
            },
            "failed_jobs": sorted(self._failed_jobs),
            "outage_depth": {
                str(k): v for k, v in sorted(self._outage_depth.items())
            },
            "fault_replan_pending": self._fault_replan_pending,
            "stalled": self._stalled,
            "plan_records": len(self.plan_history),
            "executor": self.executor.resilience_state(),
        }
        if self.ladder is not None:
            state["ladder"] = self.ladder.snapshot()
        if self.fault_injector is not None:
            state["fault_rng"] = self.fault_injector.rng_state()
        return state
