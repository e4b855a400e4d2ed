"""Closed-system batch scheduling.

The paper's preliminary work ([12], referenced in Section I) studied a
*closed* system: a fixed batch of MapReduce jobs known up front, solved
once.  This facade provides that mode directly -- no simulation, no
arrivals -- and is also the natural API for "plan tomorrow's reservations
tonight" use-cases:

>>> result = schedule_batch(jobs, resources)
>>> result.schedule          # task -> (resource, slot, start)
>>> result.late_jobs         # which jobs miss their deadlines
>>> print(result.gantt())    # eyeball it
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.formulation import FormulationMode, build_model
from repro.core.gantt import render_gantt
from repro.core.invocation import extract_assignments
from repro.core.schedule import Schedule, SchedulingError, validate_schedule
from repro.cp.solution import SearchStats, SolveStatus
from repro.cp.solver import CpSolver, SolverParams
from repro.workload.entities import Resource


@dataclass
class BatchResult:
    """Outcome of one closed-system solve."""

    schedule: Schedule
    status: SolveStatus
    objective: int  # number of late jobs in the produced schedule
    late_job_ids: List[int]
    completion_times: Dict[int, int]
    makespan: int
    solve_seconds: float
    stats: SearchStats = field(default_factory=SearchStats)
    _resources: Sequence[Resource] = ()

    @property
    def late_jobs(self) -> int:
        return len(self.late_job_ids)

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the produced schedule."""
        return render_gantt(self.schedule, list(self._resources), width=width)


def schedule_batch(
    jobs: Sequence,
    resources: Sequence[Resource],
    mode: FormulationMode = FormulationMode.COMBINED,
    solver_params: Optional[SolverParams] = None,
    start_time: int = 0,
) -> BatchResult:
    """Map and schedule a fixed batch of jobs (MapReduce or workflows).

    Minimises the number of late jobs within the solver budget and returns
    the complete, validated assignment.  Raises
    :class:`~repro.core.schedule.SchedulingError` if no feasible schedule
    exists (only possible with malformed inputs -- an unconstrained batch
    can always be serialised).
    """
    if not jobs:
        raise SchedulingError("empty batch")
    t0 = time.perf_counter()
    formulation = build_model(
        jobs, resources, now=start_time, running=(), mode=mode
    )
    solver = CpSolver(solver_params or SolverParams(time_limit=5.0))
    result = solver.solve(formulation.model)
    if not result:
        raise SchedulingError(
            f"batch solve failed with status {result.status.value}"
        )
    solution = result.solution
    assert solution is not None

    schedule = Schedule()
    for a in extract_assignments(formulation, solution, (), resources):
        schedule.add(a)
    problems = validate_schedule(schedule, jobs, resources, now=start_time)
    if problems:
        raise SchedulingError(
            "batch schedule invalid:\n  " + "\n  ".join(problems)
        )

    completion: Dict[int, int] = {}
    late: List[int] = []
    for job in jobs:
        ct = schedule.job_completion(job)
        completion[job.id] = ct
        if ct > job.deadline:
            late.append(job.id)

    return BatchResult(
        schedule=schedule,
        status=result.status,
        objective=len(late),
        late_job_ids=sorted(late),
        completion_times=completion,
        makespan=max(completion.values()),
        solve_seconds=time.perf_counter() - t0,
        stats=result.stats,
        _resources=list(resources),
    )
