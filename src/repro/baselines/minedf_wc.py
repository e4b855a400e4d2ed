"""MinEDF-WC (Verma et al. [8]): minimum-allocation EDF, work-conserving.

The policy the paper compares MRCP-RM against (Figures 2-3).  On every
scheduling event:

1. Active jobs are ordered earliest-deadline-first.
2. Each job is allocated the *minimum* number of slots the ARIA performance
   model says it needs to meet its deadline from the current instant
   (:func:`repro.baselines.perf_model.min_slots_for_deadline`), counting
   slots it already holds (running tasks).
3. Work conservation: slots still free after the minimum pass are handed to
   jobs with pending tasks, again in EDF order.

De-allocation ("WC" in the name) is emergent: allocations are recomputed on
every event and running tasks are never preempted, so a newly arrived urgent
job reclaims spare capacity as loaned slots free up -- exactly the paper's
"dynamically allocate and de-allocate resources (task slots) from active
jobs as required".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.baselines.perf_model import min_slots_for_deadline
from repro.baselines.slot_cluster import SlotCluster, SlotPolicy
from repro.core.schedule import SlotKind
from repro.workload.entities import Job, Task


def _running_counts(job: Job) -> Tuple[int, int]:
    """(running maps, running reduces): dispatched but not completed.

    Partitioned by task kind so DAG workflows (whose stages each consume
    one slot kind) are sized correctly too.
    """
    rm = rr = 0
    for t in job.tasks:
        if t.is_prev_scheduled and not t.is_completed:
            if t.is_map:
                rm += 1
            else:
                rr += 1
    return rm, rr


class MinEdfWcPolicy(SlotPolicy):
    """Minimum EDF with work-conserving spare-slot allocation."""

    name = "minedf-wc"

    def select(
        self,
        cluster: SlotCluster,
        jobs: Sequence[Job],
        now: float,
    ) -> List[Tuple[Task, int]]:
        edf_jobs = sorted(jobs, key=lambda j: (j.deadline, j.arrival_time, j.id))
        free_left = self.free_snapshot(cluster)
        placements: List[Tuple[Task, int]] = []
        leftovers: List[Tuple[Job, List[Task]]] = []

        # ---- pass 1: minimum allocations, EDF order
        for job in edf_jobs:
            eligible = self.eligible_tasks(job)
            if not eligible:
                continue
            budget = float(job.deadline - now)
            map_rem = [
                t.duration for t in job.tasks if t.is_map and not t.is_completed
            ]
            red_rem = [
                t.duration
                for t in job.tasks
                if t.is_reduce and not t.is_completed
            ]
            n_m, n_r = min_slots_for_deadline(map_rem, red_rem, budget)
            running_m, running_r = _running_counts(job)
            if eligible[0].kind is SlotKind.MAP:
                want = max(0, n_m - running_m)
            else:
                want = max(0, n_r - running_r)
            placed = self.place_tasks(free_left, eligible, limit=want)
            placements.extend(placed)
            placed_ids = {t.id for t, _ in placed}
            rest = [t for t in eligible if t.id not in placed_ids]
            if rest:
                leftovers.append((job, rest))

        # ---- pass 2: work conservation -- spare slots to pending tasks
        for _, rest in leftovers:
            placements.extend(self.place_tasks(free_left, rest))
        return placements
