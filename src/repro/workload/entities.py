"""Job, Task and Resource entities (paper Sections III.A and V.A).

All times are integer simulated seconds: the CP formulation reasons over
integer start times (CP Optimizer does the same without discretising time;
our solver uses integral bounds), and second-level granularity matches the
paper's workload parameters.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


class TaskKind(enum.Enum):
    """Map or reduce task (selects the slot pool consumed)."""
    MAP = "map"
    REDUCE = "reduce"


@dataclass
class Task:
    """One map or reduce task.

    ``duration`` is the execution time :math:`e_t` (includes input read and
    shuffle, per Section III.A); ``demand`` is the resource capacity
    requirement :math:`q_t` (1 in the paper).  The two boolean flags are the
    runtime attributes of the Java implementation (Section V.A).
    """

    id: str
    job_id: int
    kind: TaskKind
    duration: int
    demand: int = 1
    is_completed: bool = False
    is_prev_scheduled: bool = False
    #: Simulation time the task finished (None while pending/running);
    #: lets schedulers compute stage readiness (e.g. transfer delays).
    completed_at: Optional[int] = None
    #: Number of execution attempts that *failed* (fault injection); the
    #: recovery policy compares this against its retry budget.
    attempts: int = 0
    #: The planned duration before runtime perturbation first revealed a
    #: different actual execution time (None while unperturbed).  Stragglers
    #: are drawn against this, so retries never compound factors.
    nominal_duration: Optional[int] = None

    @property
    def length(self) -> int:
        """The duration, named as on an interval (list scheduling walks both)."""
        return self.duration

    @property
    def is_map(self) -> bool:
        return self.kind is TaskKind.MAP

    @property
    def is_reduce(self) -> bool:
        return self.kind is TaskKind.REDUCE

    def reset_runtime_state(self) -> None:
        """Clear execution flags so the task can be re-run (new replication)."""
        self.is_completed = False
        self.is_prev_scheduled = False
        self.completed_at = None
        self.attempts = 0
        if self.nominal_duration is not None:
            self.duration = self.nominal_duration
            self.nominal_duration = None


@dataclass
class Job:
    """A MapReduce job with an SLA (earliest start, execution times, deadline)."""

    id: int
    arrival_time: int  # v_j
    earliest_start: int  # s_j  (>= arrival time)
    deadline: int  # d_j
    map_tasks: List[Task] = field(default_factory=list)
    reduce_tasks: List[Task] = field(default_factory=list)

    # -------------------------------------------------------------- derived
    @property
    def tasks(self) -> List[Task]:
        return self.map_tasks + self.reduce_tasks

    @property
    def total_map_work(self) -> int:
        return sum(t.duration for t in self.map_tasks)

    @property
    def total_reduce_work(self) -> int:
        return sum(t.duration for t in self.reduce_tasks)

    @property
    def total_work(self) -> int:
        return self.total_map_work + self.total_reduce_work

    def laxity(self) -> int:
        """Slack: ``d_j - s_j - sum(e_t)`` (paper, Section VI.B)."""
        return self.deadline - self.earliest_start - self.total_work

    @property
    def is_completed(self) -> bool:
        return all(t.is_completed for t in self.tasks)

    @property
    def pending_tasks(self) -> List[Task]:
        return [t for t in self.tasks if not t.is_completed]

    def reset_runtime_state(self) -> None:
        """Clear every task's execution flags (new replication)."""
        for t in self.tasks:
            t.reset_runtime_state()

    def with_earliest_start(self, earliest_start: int) -> "Job":
        """A shallow view with a clamped effective EST (Table 2 lines 1-4).

        The task lists are shared -- only the SLA field differs -- so the
        resource manager can feed the clamped value to the CP model while
        the metrics keep using the original ``earliest_start``.
        """
        if earliest_start == self.earliest_start:
            return self
        return Job(
            id=self.id,
            arrival_time=self.arrival_time,
            earliest_start=earliest_start,
            deadline=self.deadline,
            map_tasks=self.map_tasks,
            reduce_tasks=self.reduce_tasks,
        )

    def copy(self) -> "Job":
        """Deep copy with fresh runtime state (for re-running replications)."""
        return Job(
            id=self.id,
            arrival_time=self.arrival_time,
            earliest_start=self.earliest_start,
            deadline=self.deadline,
            map_tasks=[_fresh_copy(t) for t in self.map_tasks],
            reduce_tasks=[_fresh_copy(t) for t in self.reduce_tasks],
        )


def _fresh_copy(task: Task) -> Task:
    """A pristine copy of ``task`` at its nominal (pre-perturbation) duration."""
    duration = (
        task.nominal_duration
        if task.nominal_duration is not None
        else task.duration
    )
    return Task(task.id, task.job_id, task.kind, duration, task.demand)


@dataclass(frozen=True)
class Resource:
    """A worker with independent map/reduce slot counts (Section III.A)."""

    id: int
    map_capacity: int  # c_r^mp
    reduce_capacity: int  # c_r^rd

    def __post_init__(self) -> None:
        if self.map_capacity < 0 or self.reduce_capacity < 0:
            raise ValueError(f"resource {self.id}: negative capacity")


def make_uniform_cluster(
    num_resources: int, map_capacity: int = 2, reduce_capacity: int = 2
) -> List[Resource]:
    """The paper's system model: ``m`` identical resources."""
    if num_resources <= 0:
        raise ValueError(f"need at least one resource, got {num_resources}")
    return [
        Resource(i, map_capacity, reduce_capacity) for i in range(num_resources)
    ]


def cluster_capacities(resources: Sequence[Resource]) -> Tuple[int, int]:
    """(total map slots, total reduce slots)."""
    return (
        sum(r.map_capacity for r in resources),
        sum(r.reduce_capacity for r in resources),
    )


def _phase_makespan(durations: Iterable[int], slots: int) -> int:
    """LPT list-scheduling makespan of independent tasks on ``slots`` machines."""
    durations = sorted(durations, reverse=True)
    if not durations:
        return 0
    if slots <= 0:
        raise ValueError("phase with tasks needs at least one slot")
    if slots >= len(durations):
        return durations[0]
    heap = [0] * slots
    for d in durations:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + d)
    return max(heap)


def minimum_execution_time(
    job: Job, total_map_slots: int, total_reduce_slots: int
) -> int:
    """``TE``: the job's minimum completion time on an empty system (Table 3).

    Maps run first (LPT on all map slots), then -- because of the barrier --
    reduces (LPT on all reduce slots).
    """
    map_span = _phase_makespan(
        (t.duration for t in job.map_tasks), total_map_slots
    )
    reduce_span = _phase_makespan(
        (t.duration for t in job.reduce_tasks), total_reduce_slots
    )
    return map_span + reduce_span
