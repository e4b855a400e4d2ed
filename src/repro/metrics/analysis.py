"""Post-run analysis: utilization, offered load, tardiness distributions.

The paper interprets its figures through resource contention ("higher
contention for resources, and thus not all jobs are able to start executing
at their earliest start times"); these helpers quantify that interpretation
for any run:

* :func:`slot_utilization` -- fraction of slot-seconds actually busy,
* :func:`offered_load` -- workload intensity: work arriving per unit time
  relative to the cluster's service capacity (the open-queue ``rho``),
* :func:`tardiness_stats` -- how late the late jobs actually were (the P
  metric counts misses; tardiness measures their severity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.core.schedule import SlotKind, TaskAssignment
from repro.ioutil import atomic_write_text
from repro.metrics.collector import RunMetrics
from repro.workload.entities import Resource, cluster_capacities


@dataclass
class UtilizationReport:
    """Busy fractions per slot kind over a time span."""

    span: int
    map_busy_seconds: int
    reduce_busy_seconds: int
    map_slots: int
    reduce_slots: int

    @property
    def map_utilization(self) -> float:
        denom = self.map_slots * self.span
        return self.map_busy_seconds / denom if denom else 0.0

    @property
    def reduce_utilization(self) -> float:
        denom = self.reduce_slots * self.span
        return self.reduce_busy_seconds / denom if denom else 0.0

def slot_utilization(
    assignments: Iterable[TaskAssignment],
    resources: Sequence[Resource],
    span: Optional[int] = None,
) -> UtilizationReport:
    """Busy slot-seconds / available slot-seconds over the run."""
    map_busy = reduce_busy = 0
    end = 0
    for a in assignments:
        if a.slot_kind is SlotKind.MAP:
            map_busy += a.task.duration
        else:
            reduce_busy += a.task.duration
        end = max(end, a.end)
    if span is None:
        span = end
    map_slots, reduce_slots = cluster_capacities(resources)
    return UtilizationReport(
        span=span,
        map_busy_seconds=map_busy,
        reduce_busy_seconds=reduce_busy,
        map_slots=map_slots,
        reduce_slots=reduce_slots,
    )


def offered_load(jobs: Sequence, resources: Sequence[Resource]) -> float:
    """Workload intensity rho = arriving work per second / service capacity.

    Above ~1.0 the open system is unstable (queues grow without bound);
    the paper's parameter choices keep it well below.
    """
    if not jobs:
        return 0.0
    total_work = sum(job.total_work for job in jobs)
    horizon = max(job.arrival_time for job in jobs) - min(
        job.arrival_time for job in jobs
    )
    if horizon <= 0:
        return float("inf")
    map_slots, reduce_slots = cluster_capacities(resources)
    capacity = map_slots + reduce_slots
    if capacity == 0:
        return float("inf")
    return (total_work / horizon) / capacity


@dataclass
class TardinessStats:
    """Severity of deadline misses."""

    late_jobs: int
    mean_tardiness: float  # over late jobs only; 0 if none
    max_tardiness: int
    total_tardiness: int
    tardiness_by_job: Dict[int, int]


def tardiness_stats(metrics: RunMetrics, jobs: Sequence) -> TardinessStats:
    """How late were the late jobs?  ``jobs`` supplies the deadlines."""
    deadline_of = {job.id: job.deadline for job in jobs}
    by_job: Dict[int, int] = {}
    for job_id, turnaround in metrics.turnarounds.items():
        if job_id not in deadline_of:
            continue
        job = next(j for j in jobs if j.id == job_id)
        completion = job.earliest_start + turnaround
        tardiness = completion - deadline_of[job_id]
        if tardiness > 0:
            by_job[job_id] = tardiness
    total = sum(by_job.values())
    return TardinessStats(
        late_jobs=len(by_job),
        mean_tardiness=total / len(by_job) if by_job else 0.0,
        max_tardiness=max(by_job.values(), default=0),
        total_tardiness=total,
        tardiness_by_job=by_job,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) without numpy ceremony."""
    if not values:
        raise ValueError("percentile of empty data")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if q == 0:
        return float(ordered[0])
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# --------------------------------------------------------------- CSV export
def turnarounds_csv(metrics: RunMetrics) -> str:
    """CSV of per-job turnarounds: ``job_id,turnaround,late``.

    Rows are sorted by job id; ``late`` is 1 when the job missed its
    deadline (membership in :attr:`RunMetrics.late_job_ids`).
    """
    late = set(metrics.late_job_ids)
    lines = ["job_id,turnaround,late"]
    for job_id in sorted(metrics.turnarounds):
        lines.append(
            f"{job_id},{metrics.turnarounds[job_id]},{int(job_id in late)}"
        )
    return "\n".join(lines) + "\n"


def overhead_csv(metrics: RunMetrics) -> str:
    """CSV of the overhead series: ``invocation,sim_time,overhead_seconds``.

    One row per scheduler invocation, in invocation order.  ``sim_time``
    is the simulated instant the invocation ran at (empty for invocations
    recorded without a timeline), so overhead spikes can be correlated
    with arrivals and faults.  The last column sums to
    :attr:`RunMetrics.total_sched_overhead`; dividing by jobs arrived
    gives the paper's O.
    """
    times = metrics.overhead_sim_times
    lines = ["invocation,sim_time,overhead_seconds"]
    for i, seconds in enumerate(metrics.overhead_series):
        sim_time = times[i] if i < len(times) else None
        cell = "" if sim_time is None else repr(sim_time)
        lines.append(f"{i},{cell},{seconds!r}")
    return "\n".join(lines) + "\n"


def write_turnarounds_csv(metrics: RunMetrics, path: str) -> str:
    """Atomically write :func:`turnarounds_csv` to ``path``; returns ``path``."""
    atomic_write_text(path, turnarounds_csv(metrics))
    return path


def write_overhead_csv(metrics: RunMetrics, path: str) -> str:
    """Atomically write :func:`overhead_csv` to ``path``; returns ``path``."""
    atomic_write_text(path, overhead_csv(metrics))
    return path
