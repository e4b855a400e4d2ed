"""Post-run analysis: slot utilization and offered load.

The paper interprets its figures through resource contention ("higher
contention for resources, and thus not all jobs are able to start executing
at their earliest start times"); these helpers quantify that interpretation
for any run:

* :func:`slot_utilization` -- fraction of slot-seconds actually busy,
* :func:`offered_load` -- workload intensity: work arriving per unit time
  relative to the cluster's service capacity (the open-queue ``rho``).

How late the late jobs were is
:attr:`~repro.metrics.collector.RunMetrics.tardiness_by_job`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.schedule import SlotKind, TaskAssignment
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
