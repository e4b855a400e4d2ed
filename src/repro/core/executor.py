"""Schedule-driven cluster execution.

MRCP-RM is plan-based: tasks start exactly at their assigned start times on
their assigned slots (the cluster does not opportunistically pull work
forward -- an earlier start would violate the CP schedule other jobs were
planned around).  The executor turns an installed plan into simulation
events and maintains the runtime state of Table 2.  Every task it knows is
in exactly one of three states, and each event moves it to the next:

* *pending* -- planned, start event queued; re-planning replaces exactly
  this part of the plan;
* *running* -- start event fired (``isPrevScheduled``), slot held; frozen
  input to every re-plan until it ends;
* *completed* -- completion event fired; its job may complete with it.

Only pending and running tasks are held as assignments, so an invocation
costs O(unfinished tasks), not O(run history).

Fault injection adds the missing transitions: a running task can *fail*
mid-execution (slot freed, attempt counter bumped, ``on_task_failed``
fired), a resource outage *kills* every task running on the node and takes
it offline until :meth:`ScheduledExecutor.restore_resource`, and runtime
perturbation can reveal an actual duration different from the planned one
(``on_task_perturbed`` fires so the manager can repair the rest of the
plan).  All of this is inert unless a fault injector is attached.

Slot-occupancy invariants are asserted on every transition -- an overlap
would mean the matchmaking decomposition violated a capacity.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.schedule import SchedulingError, SlotKind, TaskAssignment
from repro.faults.injector import FaultInjector
from repro.metrics.collector import MetricsCollector
from repro.obs.logs import get_logger, kv
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.kernel import (
    PRIORITY_ACQUIRE,
    PRIORITY_RELEASE,
    EventHandle,
    Simulator,
)
from repro.workload.entities import Job, Resource

_LOG = get_logger("core.executor")


class ScheduledExecutor:
    """Executes task assignments at their planned times."""

    def __init__(
        self,
        sim: Simulator,
        resources: Iterable[Resource],
        metrics: Optional[MetricsCollector] = None,
        on_job_complete: Optional[Callable[[Job], None]] = None,
        on_task_complete: Optional[Callable[[TaskAssignment], None]] = None,
        fault_injector: Optional[FaultInjector] = None,
        on_task_failed: Optional[Callable[[TaskAssignment, str], None]] = None,
        on_task_perturbed: Optional[Callable[[TaskAssignment], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.resources = list(resources)
        self.resource_by_id = {r.id: r for r in self.resources}
        self.metrics = metrics or MetricsCollector()
        #: Observability: task lifecycle counters plus, with tracing on, one
        #: sim-timeline span per completed attempt (row = resource id).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        registry = self.tracer.registry
        self._m_started = registry.counter("executor.tasks_started")
        self._m_completed = registry.counter("executor.tasks_completed")
        self._m_failed = registry.counter("executor.tasks_failed")
        self.on_job_complete = on_job_complete
        self.on_task_complete = on_task_complete
        self.fault_injector = fault_injector
        self.on_task_failed = on_task_failed
        self.on_task_perturbed = on_task_perturbed

        self._jobs: Dict[int, Job] = {}
        #: planned, start event queued (same keys as ``_start_handles``)
        self._pending: Dict[str, TaskAssignment] = {}
        self._start_handles: Dict[str, EventHandle] = {}
        #: started, not completed
        self._running: Dict[str, TaskAssignment] = {}
        #: append-only; a task is in at most one of the three
        self._completed: Set[str] = set()
        #: slot -> task id currently occupying it
        self._slot_busy: Dict[Tuple[int, SlotKind, int], str] = {}
        #: task id -> attempt-end event (completion or injected failure);
        #: cancelled when an outage kills the attempt.
        self._end_handles: Dict[str, EventHandle] = {}
        #: resources currently down (outage); starting a task on one is a bug.
        self._offline: Set[int] = set()

    # ------------------------------------------------------------- plumbing
    def attach_telemetry(self, sampler) -> None:
        """Register slot-occupancy probes on the telemetry sampler.

        ``executor.slots_busy`` counts occupied (map + reduce) slots,
        ``executor.slots_total`` the cluster capacity,
        ``executor.slot_utilization`` their ratio, and
        ``executor.resources_offline`` the nodes currently in an outage
        window.  A disabled (null) sampler makes this a no-op.
        """
        if not sampler.enabled:
            return
        total = float(
            sum(r.map_capacity + r.reduce_capacity for r in self.resources)
        )
        sampler.add_probe(
            "executor.slots_busy", lambda: float(len(self._slot_busy))
        )
        sampler.add_probe("executor.slots_total", lambda: total)
        sampler.add_probe(
            "executor.slot_utilization",
            lambda: (len(self._slot_busy) / total) if total else 0.0,
        )
        sampler.add_probe(
            "executor.resources_offline", lambda: float(len(self._offline))
        )

    def register_job(self, job: Job) -> None:
        """Make the executor aware of a job so completions can be detected."""
        self._jobs[job.id] = job

    @property
    def jobs(self) -> Dict[int, Job]:
        return self._jobs

    def snapshot_running(self) -> List[TaskAssignment]:
        """Tasks that have started but not completed (the frozen set)."""
        return list(self._running.values())

    def is_completed(self, task_id: str) -> bool:
        """Whether the task's completion event has fired."""
        return task_id in self._completed

    def planned_unstarted(self) -> List[TaskAssignment]:
        """Pending plan entries (used by the schedule-once ablation)."""
        return list(self._pending.values())

    # ------------------------------------------------------------ the plan
    def install(
        self, assignments: Iterable[TaskAssignment], replace: bool = True
    ) -> None:
        """Adopt a new plan for all not-yet-started tasks.

        With ``replace=True`` (normal MRCP-RM re-planning) every pending
        start event is cancelled first; assignments for already started or
        completed tasks are ignored (they were frozen inputs to the solver
        and cannot change).  With ``replace=False`` the assignments are
        added on top of the existing plan (schedule-once ablation).
        """
        now = self.sim.now
        if replace:
            for handle in self._start_handles.values():
                handle.cancel()
            self._start_handles.clear()
            self._pending.clear()
        for a in assignments:
            tid = a.task.id
            if tid in self._running or tid in self._completed:
                continue  # frozen pass-through
            if a.start < now:
                raise SchedulingError(
                    f"task {tid}: planned start {a.start} is in the past "
                    f"(now={now})"
                )
            if not replace and tid in self._pending:
                prev = self._pending[tid]
                if (
                    prev.start == a.start
                    and prev.resource_id == a.resource_id
                    and prev.slot_index == a.slot_index
                ):
                    continue  # frozen pass-through from the solver
                raise SchedulingError(
                    f"task {tid}: conflicting plan entries (replace=False)"
                )
            self._pending[tid] = a
            self._start_handles[tid] = self.sim.schedule_at(
                a.start, lambda a=a: self._start_task(a), PRIORITY_ACQUIRE
            )

    # --------------------------------------------------------- transitions
    def _start_task(self, a: TaskAssignment) -> None:
        tid = a.task.id
        if self._pending.get(tid) is not a:
            raise SchedulingError(f"stale start event for task {tid}")
        if a.resource_id in self._offline:
            raise SchedulingError(
                f"task {tid}: planned start on offline resource {a.resource_id}"
            )
        key = a.slot_key()
        occupant = self._slot_busy.get(key)
        if occupant is not None:
            raise SchedulingError(
                f"slot {key} double-booked: {occupant} vs {tid}"
            )
        res = self.resource_by_id.get(a.resource_id)
        if res is None:
            raise SchedulingError(f"task {tid}: unknown resource {a.resource_id}")
        cap = (
            res.map_capacity
            if a.slot_kind is SlotKind.MAP
            else res.reduce_capacity
        )
        if not (0 <= a.slot_index < cap):
            raise SchedulingError(
                f"task {tid}: slot index {a.slot_index} out of range on "
                f"resource {a.resource_id}"
            )
        self._slot_busy[key] = tid
        del self._start_handles[tid]
        self._running[tid] = self._pending.pop(tid)
        a.task.is_prev_scheduled = True
        self._m_started.inc()

        duration = a.task.duration
        fails_after: Optional[float] = None
        if self.fault_injector is not None:
            outcome = self.fault_injector.attempt_outcome(a.task)
            fails_after = outcome.fails_after
            if outcome.duration != duration:
                # Runtime reveals the actual execution time: rebase the
                # task's duration so every later layer (frozen intervals,
                # matchmaking, validation) sees the true slot occupancy,
                # and let the manager repair the now-stale plan suffix.
                if a.task.nominal_duration is None:
                    a.task.nominal_duration = duration
                if outcome.duration > duration:
                    self.metrics.task_straggled()
                a.task.duration = outcome.duration
                duration = outcome.duration
                if self.on_task_perturbed is not None:
                    self.on_task_perturbed(a)
        if fails_after is not None:
            self._end_handles[tid] = self.sim.schedule(
                fails_after,
                lambda: self._fail_task(a, "failure"),
                PRIORITY_RELEASE,
            )
        else:
            self._end_handles[tid] = self.sim.schedule(
                duration, lambda: self._complete_task(a), PRIORITY_RELEASE
            )

    def _complete_task(self, a: TaskAssignment) -> None:
        tid = a.task.id
        self._end_handles.pop(tid, None)
        if tid in self._completed:
            raise SchedulingError(f"task {tid} completed twice")
        key = a.slot_key()
        if self._slot_busy.get(key) != tid:
            raise SchedulingError(f"slot {key} not held by completing task {tid}")
        del self._slot_busy[key]
        del self._running[tid]
        self._completed.add(tid)
        a.task.is_completed = True
        a.task.completed_at = int(self.sim.now)
        self._m_completed.inc()
        tracer = self.tracer
        if tracer.enabled:
            args = {
                "job": a.task.job_id,
                "kind": a.slot_kind.name,
                "slot": a.slot_index,
            }
            # Forensics inputs: the planned (nominal) duration when runtime
            # perturbation revealed a different actual one, and how many
            # earlier attempts of this task failed.
            if a.task.nominal_duration is not None:
                args["planned"] = a.task.nominal_duration
            if a.task.attempts:
                args["failed_attempts"] = a.task.attempts
            tracer.sim_span(
                tid,
                "task",
                a.start,
                self.sim.now,
                tid=a.resource_id,
                args=args,
            )
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug(
                "task completed %s",
                kv(t=self.sim.now, task=tid, job=a.task.job_id),
            )
        if self.on_task_complete is not None:
            self.on_task_complete(a)
        job = self._jobs.get(a.task.job_id)
        if job is not None and job.is_completed:
            self.metrics.job_completed(job, self.sim.now)
            if self.on_job_complete is not None:
                self.on_job_complete(job)

    def _fail_task(self, a: TaskAssignment, reason: str) -> None:
        """A running attempt dies: free the slot, revert to unstarted.

        ``reason`` is ``"failure"`` (injected task fault) or ``"outage"``
        (the attempt's resource went down).  The task is *not* completed:
        it leaves the running map and enters no other (the next
        :meth:`install` re-plans it), its attempt counter is bumped, and
        ``on_task_failed`` lets the recovery policy re-queue it.
        """
        tid = a.task.id
        self._end_handles.pop(tid, None)
        if self._running.get(tid) is not a:
            raise SchedulingError(f"stale failure event for task {tid}")
        key = a.slot_key()
        if self._slot_busy.get(key) != tid:
            raise SchedulingError(f"slot {key} not held by failing task {tid}")
        del self._slot_busy[key]
        del self._running[tid]
        a.task.is_prev_scheduled = False
        a.task.attempts += 1
        self._m_failed.inc()
        tracer = self.tracer
        if tracer.enabled:
            # ``start``/``resource`` let forensics reconstruct the dead
            # attempt's slot occupancy (there is no completion span for it).
            tracer.instant(
                "task.failed",
                "fault",
                args={
                    "task": tid,
                    "job": a.task.job_id,
                    "reason": reason,
                    "start": a.start,
                    "resource": a.resource_id,
                    "kind": a.slot_kind.name,
                    "slot": a.slot_index,
                },
                sim_track=True,
            )
        self.metrics.task_failed(reason)
        if self.on_task_failed is not None:
            self.on_task_failed(a, reason)

    # -------------------------------------------------------------- faults
    def fail_resource(self, resource_id: int) -> List[TaskAssignment]:
        """Take a resource offline: kill its running tasks, drop its plan.

        Every task running on the node is preempted through the failure
        transition (reason ``"outage"``); pending plan entries placed on the
        node are silently un-planned (their start events are cancelled) so
        the next re-plan re-places them.  Returns the killed assignments.
        """
        if resource_id not in self.resource_by_id:
            raise SchedulingError(f"unknown resource {resource_id}")
        self._offline.add(resource_id)
        victims = [
            a for a in self._running.values() if a.resource_id == resource_id
        ]
        for a in victims:
            handle = self._end_handles.pop(a.task.id, None)
            if handle is not None:
                handle.cancel()
            self._fail_task(a, "outage")
        self._drop_pending(lambda a: a.resource_id == resource_id)
        return victims

    def restore_resource(self, resource_id: int) -> None:
        """Bring a failed resource back into service (outage recovery)."""
        if resource_id not in self.resource_by_id:
            raise SchedulingError(f"unknown resource {resource_id}")
        self._offline.discard(resource_id)

    def abandon_job(self, job_id: int) -> None:
        """Drop a job's pending plan entries (the job was declared failed).

        Running tasks of the job are left to finish (they hold real slots);
        they simply no longer lead to a job completion.
        """
        self._drop_pending(lambda a: a.task.job_id == job_id)

    def _drop_pending(self, doomed: Callable[[TaskAssignment], bool]) -> None:
        """Un-plan the pending entries ``doomed`` selects (start cancelled)."""
        for tid in [tid for tid, a in self._pending.items() if doomed(a)]:
            del self._pending[tid]
            self._start_handles.pop(tid).cancel()

    # ---------------------------------------------------------- checkpoint
    def resilience_state(self) -> Dict[str, object]:
        """The executor's runtime state as comparable JSON-safe data.

        Everything future transitions depend on is here: the pending plan,
        the running set, completions, slot occupancy, offline resources and
        the per-task attempt counters behind the retry budget.  Captured
        into checkpoints and strictly compared after a restore's replay.
        """
        def entries(held: Dict[str, TaskAssignment]) -> Dict[str, List[int]]:
            return {
                tid: [a.resource_id, a.slot_index, a.start]
                for tid, a in sorted(held.items())
            }

        return {
            "jobs": sorted(self._jobs),
            "pending": entries(self._pending),
            "running": entries(self._running),
            "completed": sorted(self._completed),
            "slot_busy": {
                f"{rid}/{kind.value}/{slot}": tid
                for (rid, kind, slot), tid in sorted(
                    self._slot_busy.items(),
                    key=lambda p: (p[0][0], p[0][1].value, p[0][2]),
                )
            },
            "offline": sorted(self._offline),
            "attempts": {
                t.id: t.attempts
                for job in self._jobs.values()
                for t in job.tasks
                if t.attempts
            },
        }

    # ------------------------------------------------------------ invariant
    def assert_quiescent(self) -> None:
        """After a drained simulation: nothing running, nothing pending."""
        running = self.snapshot_running()
        if running:
            raise SchedulingError(
                f"{len(running)} tasks still running at drain: "
                f"{[a.task.id for a in running][:5]}"
            )
        pending = self.planned_unstarted()
        if pending:
            raise SchedulingError(
                f"{len(pending)} tasks never started: "
                f"{[a.task.id for a in pending][:5]}"
            )
