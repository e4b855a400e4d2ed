"""Slot-based cluster execution for policy-driven schedulers.

The Hadoop-style execution model MinEDF-WC assumes: each resource exposes
map/reduce slots; whenever a slot frees (or a job arrives / becomes
eligible) the scheduling *policy* is consulted and may start pending tasks
on free slots immediately.  Tasks are never preempted.

This is deliberately different from MRCP-RM's plan-driven executor
(:mod:`repro.core.executor`): the baselines pull work when capacity frees,
MRCP-RM pushes work at planned instants.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import SchedulingError, SlotKind
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import PRIORITY_RELEASE, Simulator
from repro.workload.entities import Job, Resource, Task


class SlotCluster:
    """Tracks free map/reduce slots per resource and runs tasks on them."""

    def __init__(
        self,
        sim: Simulator,
        resources: Sequence[Resource],
        on_task_complete: Optional[Callable[[Task, int], None]] = None,
    ) -> None:
        self.sim = sim
        self.resources = list(resources)
        self._free: Dict[Tuple[int, SlotKind], int] = {}
        for r in self.resources:
            self._free[(r.id, SlotKind.MAP)] = r.map_capacity
            self._free[(r.id, SlotKind.REDUCE)] = r.reduce_capacity
        self.on_task_complete = on_task_complete
        self._running: Dict[str, Tuple[Task, int]] = {}
        self.tasks_started = 0

    # -------------------------------------------------------------- queries
    def running_count(self) -> int:
        """Number of tasks currently executing."""
        return len(self._running)

    # ------------------------------------------------------------ execution
    def start_task(self, task: Task, resource_id: int) -> None:
        """Occupy a slot and run ``task`` to completion."""
        kind = task.kind
        key = (resource_id, kind)
        if key not in self._free:
            raise SchedulingError(f"unknown resource {resource_id}")
        if self._free[key] <= 0:
            raise SchedulingError(
                f"no free {kind.value} slot on resource {resource_id} "
                f"for task {task.id}"
            )
        if task.id in self._running or task.is_completed:
            raise SchedulingError(f"task {task.id} started twice")
        self._free[key] -= 1
        self._running[task.id] = (task, resource_id)
        task.is_prev_scheduled = True
        self.tasks_started += 1
        self.sim.schedule(
            task.duration,
            lambda: self._complete(task, resource_id),
            PRIORITY_RELEASE,
        )

    def _complete(self, task: Task, resource_id: int) -> None:
        del self._running[task.id]
        task.is_completed = True
        task.completed_at = int(self.sim.now)
        self._free[(resource_id, task.kind)] += 1
        if self.on_task_complete is not None:
            self.on_task_complete(task, resource_id)

    def assert_quiescent(self) -> None:
        """After a drained run: nothing running, all slots returned."""
        if self._running:
            raise SchedulingError(
                f"{len(self._running)} tasks still running at drain"
            )
        for r in self.resources:
            if self._free[(r.id, SlotKind.MAP)] != r.map_capacity:
                raise SchedulingError(f"resource {r.id}: leaked map slots")
            if self._free[(r.id, SlotKind.REDUCE)] != r.reduce_capacity:
                raise SchedulingError(f"resource {r.id}: leaked reduce slots")


class SlotPolicy:
    """Strategy interface: pick (task, resource) pairs to start *now*."""

    name = "policy"

    def select(
        self,
        cluster: SlotCluster,
        jobs: Sequence[Job],
        now: float,
    ) -> List[Tuple[Task, int]]:
        """Return task placements; every placement must use a free slot.

        ``jobs`` are the active (arrived, uncompleted) jobs whose earliest
        start time has been reached, in arrival order.  The policy is
        re-invoked after every event, so returning a subset is fine.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    @staticmethod
    def eligible_tasks(job: Job) -> List[Task]:
        """Pending tasks that may start now.

        A stage's tasks become eligible when every predecessor stage has
        fully completed: for a MapReduce job, maps always and reduces once
        every map has completed (the barrier).  Transfer delays are not
        supported by the slot-pull execution model (the scheduler has no
        wake-up for "ready in d seconds"); route those through MRCP-RM.
        """
        stages, preds, delays, *_ = job.topological_structure()
        if any(d for ds in delays for d in ds):
            raise ValueError(
                f"workflow {job.id}: slot-based schedulers do not "
                f"support transfer delays; use MRCP-RM"
            )
        eligible: List[Task] = []
        for i, stage in enumerate(stages):
            if any(not t.is_completed for p in preds[i] for t in stages[p].tasks):
                continue  # some predecessor stage still running/pending
            eligible.extend(
                t for t in stage.tasks if not t.is_completed and not t.is_prev_scheduled
            )
        return eligible

    @staticmethod
    def place_tasks(
        free_left: Dict[Tuple[int, SlotKind], int],
        tasks: Sequence[Task],
        limit: Optional[int] = None,
    ) -> List[Tuple[Task, int]]:
        """Greedy placement of up to ``limit`` tasks onto remaining slots.

        ``free_left`` is the caller's running tally of free slots (start a
        dispatch round with a copy of the cluster's state and thread it
        through successive calls); it is decremented in place.
        """
        placements: List[Tuple[Task, int]] = []
        if limit is None:
            limit = len(tasks)
        for task in tasks:
            if len(placements) >= limit:
                break
            kind = task.kind
            # Least-loaded resource first: spread tasks out.
            candidates = [
                (count, r)
                for (r, k), count in free_left.items()
                if k is kind and count > 0
            ]
            if not candidates:
                continue
            candidates.sort(key=lambda p: (-p[0], p[1]))
            rid = candidates[0][1]
            free_left[(rid, kind)] -= 1
            placements.append((task, rid))
        return placements

    @staticmethod
    def free_snapshot(cluster: SlotCluster) -> Dict[Tuple[int, SlotKind], int]:
        return dict(cluster._free)


class SlotScheduler:
    """Event loop glue: arrivals, barriers, policy dispatch, metrics."""

    def __init__(
        self,
        sim: Simulator,
        resources: Sequence[Resource],
        policy: SlotPolicy,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.metrics = metrics or MetricsCollector()
        self.cluster = SlotCluster(
            sim, resources, on_task_complete=self._task_done
        )
        self._jobs: Dict[int, Job] = {}
        self._active: Dict[int, Job] = {}  # eligible, uncompleted
        self._arrival_order: List[int] = []

    # --------------------------------------------------------------- intake
    def submit(self, job: Job) -> None:
        """A user submits a job at the current simulation time."""
        now = self.sim.now
        self.metrics.job_arrived(job)
        self._jobs[job.id] = job
        self._arrival_order.append(job.id)
        if job.earliest_start > now:
            self.sim.schedule_at(
                job.earliest_start, lambda j=job: self._activate(j)
            )
        else:
            self._activate(job)

    def _activate(self, job: Job) -> None:
        self._active[job.id] = job
        self._dispatch()

    def _task_done(self, task: Task, resource_id: int) -> None:
        job = self._jobs[task.job_id]
        if job.is_completed:
            self._active.pop(job.id, None)
            self.metrics.job_completed(job, self.sim.now)
        self._dispatch()

    # ------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        t0 = _time.perf_counter()
        jobs = [
            self._jobs[jid]
            for jid in self._arrival_order
            if jid in self._active
        ]
        placements = self.policy.select(self.cluster, jobs, self.sim.now)
        for task, rid in placements:
            self.cluster.start_task(task, rid)
        self.metrics.record_overhead(
            _time.perf_counter() - t0, sim_time=self.sim.now
        )

    @property
    def active_jobs(self) -> List[Job]:
        return list(self._active.values())
