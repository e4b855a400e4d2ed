"""Builds the Table 1 CP model from the current system state.

Two formulation modes (Section V.D):

* ``COMBINED`` -- the performance optimisation MRCP-RM uses by default: the
  resource set is replaced by a single combined resource holding the total
  map and reduce slot counts; the CP solver only decides start times, and
  matchmaking happens afterwards (:mod:`repro.core.matchmaking`).  The paper
  reports ~4x faster solves in this mode (15 s vs 60 s on their anecdote).
* ``JOINT`` -- the plain Table 1 formulation: one optional interval per
  (task, resource) pair tied together by ``alternative`` constraints, and a
  per-resource ``cumulative``.  Exact matchmaking, much larger model.

Frozen tasks -- those that have started but not completed (Table 2, line
11) -- of planned jobs enter the model as fixed intervals: they consume
capacity in the profiles but cannot move, and constraint (2) (earliest start
times) is not applied to them (``isPrevScheduled``, Section V.B).  Frozen
work of other jobs is no decision at all: a
:class:`~repro.core.matchmaking.FrozenBase` the cumulatives sit on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cp.model import CpModel
from repro.cp.profile import TimetableProfile
from repro.cp.variables import BoolVar, IntervalVar
from repro.core.matchmaking import FrozenBase
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.workload.entities import Job, Resource, Task, TaskKind
from repro.workload.workflows import WorkflowJob


class FormulationMode(enum.Enum):
    """Which Table 1 variant to build (Section V.D)."""
    COMBINED = "combined"  # Section V.D separation of matchmaking/scheduling
    JOINT = "joint"  # plain Table 1 with per-resource alternatives


@dataclass
class FormulationResult:
    """The CP model plus the mappings needed to read a solution back."""

    model: CpModel
    mode: FormulationMode
    #: master interval for every task in the model (movable and frozen)
    interval_of: Dict[str, IntervalVar] = field(default_factory=dict)
    task_of: Dict[IntervalVar, Task] = field(default_factory=dict)
    #: lateness indicator per job id
    indicator_of: Dict[int, BoolVar] = field(default_factory=dict)
    #: frozen tasks carried over (task id -> original assignment)
    frozen: Dict[str, TaskAssignment] = field(default_factory=dict)
    #: JOINT mode only: option interval -> resource id
    resource_of_option: Dict[IntervalVar, int] = field(default_factory=dict)
    horizon: int = 0


def _compute_horizon(
    jobs: Sequence[Job], running: Sequence[TaskAssignment], now: int
) -> int:
    """A safe scheduling horizon: everything fits sequentially below it."""
    base = now
    total = 1
    for job in jobs:
        base = max(base, job.earliest_start)
        for t in job.pending_tasks:
            total += t.duration
        # workflow edges may add data-transfer gaps on the critical path
        delays = getattr(job, "edge_delays", None)
        if delays:
            total += sum(delays.values())
    for a in running:
        base = max(base, a.end)
    return base + total + 1


def build_model(
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: int,
    running: Sequence[TaskAssignment] = (),
    mode: FormulationMode = FormulationMode.COMBINED,
    base: Optional[FrozenBase] = None,
) -> FormulationResult:
    """Build the CP model for one MRCP-RM invocation.

    ``jobs`` are the eligible jobs with at least one unfinished task; their
    ``earliest_start`` values must already be clamped to ``now`` (Table 2,
    lines 1-4).  ``running`` lists the frozen (started, uncompleted) task
    assignments; those of jobs outside ``jobs`` go on a fresh base.
    ``base`` is a standing one instead (pools per resource iff JOINT), read
    only: the model holds the movable tasks, the horizon covers its end.
    """
    if not resources:
        raise SchedulingError("no resources")
    if base is not None and base.per_resource != (mode is FormulationMode.JOINT):
        raise SchedulingError(f"base pools do not match the {mode.value} mode")
    running_by_id = {a.task.id: a for a in running}
    horizon = _compute_horizon(
        jobs, running, now if base is None else max(now, base.end())
    )
    model = CpModel(horizon=horizon)
    result = FormulationResult(
        model=model, mode=mode, frozen=dict(running_by_id), horizon=horizon
    )

    if mode is FormulationMode.COMBINED:
        _build_combined(model, result, jobs, resources, now, running_by_id, base)
    else:
        _build_joint(model, result, jobs, resources, now, running_by_id, base)

    indicators = [result.indicator_of[j.id] for j in jobs if j.id in result.indicator_of]
    if indicators:
        model.minimize_sum(indicators)
    return result


def _stage_structure(
    job,
) -> Tuple[List[List[Task]], List[List[int]], List[List[int]], List[int]]:
    """Per-job stage decomposition: (stage task lists in topological order,
    predecessor indices per stage, per-predecessor transfer delays,
    terminal stage indices).

    A MapReduce :class:`Job` is the two-stage chain maps -> reduces; a
    :class:`WorkflowJob` supplies its own DAG (the Section VII
    generalisation), optionally with communication delays on edges.
    """
    if isinstance(job, WorkflowJob):
        stages, preds, delays = job.topological_structure()
        terminal_names = set(job.terminal_stage_names())
        terminal = [
            i for i, s in enumerate(stages) if s.name in terminal_names
        ]
        return [list(s.tasks) for s in stages], preds, delays, terminal
    stage_tasks: List[List[Task]] = [list(job.map_tasks)]
    preds: List[List[int]] = [[]]
    delays: List[List[int]] = [[]]
    if job.reduce_tasks:
        stage_tasks.append(list(job.reduce_tasks))
        preds.append([0])
        delays.append([0])
    return stage_tasks, preds, delays, [len(stage_tasks) - 1]


def _make_task_intervals(
    model: CpModel,
    result: FormulationResult,
    job,
    now: int,
    running_by_id: Dict[str, TaskAssignment],
) -> Tuple[
    List[List[IntervalVar]], List[List[int]], List[List[int]], List[int]
]:
    """Create master intervals for a job's unfinished tasks, stage by stage.

    Completed tasks are omitted (Table 2, lines 13-16); running tasks are
    frozen at their dispatched start.  Returns the staged interval lists
    plus the predecessor/terminal structure from :func:`_stage_structure`.
    """
    release = max(job.earliest_start, now)
    stage_tasks, preds, delays, terminal = _stage_structure(job)
    stage_ivs: List[List[IntervalVar]] = []
    for tasks in stage_tasks:
        ivs: List[IntervalVar] = []
        for task in tasks:
            if task.is_completed:
                continue
            frozen = running_by_id.get(task.id)
            if frozen is not None:
                iv = model.fixed_interval(
                    start=frozen.start,
                    length=task.duration,
                    name=task.id,
                    demand=task.demand,
                    payload=task,
                )
            else:
                iv = model.interval_var(
                    length=task.duration,
                    est=release,
                    name=task.id,
                    demand=task.demand,
                    payload=task,
                )
            result.interval_of[task.id] = iv
            result.task_of[iv] = task
            ivs.append(iv)
        stage_ivs.append(ivs)
    return stage_ivs, preds, delays, terminal


def _add_job_structure(
    model: CpModel,
    result: FormulationResult,
    job,
    stage_ivs: List[List[IntervalVar]],
    preds: List[List[int]],
    delays: List[List[int]],
    terminal: List[int],
    now: int,
) -> None:
    """Barriers, lateness indicator, and LNS/heuristic grouping for one job."""
    for i, ps in enumerate(preds):
        for p, d in zip(ps, delays[i]):
            model.add_barrier(
                stage_ivs[p],
                stage_ivs[i],
                name=f"barrier(j{job.id}:{p}->{i})",
                delay=d,
            )
    # The job completes with its terminal-stage tasks; if those have all
    # completed already, any remaining tasks define completion (their
    # lateness verdict is then already sealed by the executed prefix).
    last_stage = [iv for i in terminal for iv in stage_ivs[i]]
    if not last_stage:
        last_stage = [iv for ivs in stage_ivs for iv in ivs]
    if last_stage:
        indicator = model.add_deadline_indicator(
            last_stage, deadline=job.deadline, name=f"late(j{job.id})"
        )
        result.indicator_of[job.id] = indicator
    model.add_staged_group(
        name=f"j{job.id}",
        stages=stage_ivs,
        stage_preds=preds,
        release=max(job.earliest_start, now),
        deadline=job.deadline,
        indicator=result.indicator_of.get(job.id),
        stage_pred_delays=delays,
    )


def _base_profiles(
    result: FormulationResult,
    resources: Sequence[Resource],
    running_by_id: Dict[str, TaskAssignment],
    base: Optional[FrozenBase],
) -> Dict[object, TimetableProfile]:
    """Per-pool load of ``base``, or of the frozen tasks of jobs not being
    planned (the schedule-once ablation); the model gets the base's ends."""
    orphans = [a for t, a in running_by_id.items() if t not in result.interval_of]
    if orphans:
        if base is not None:
            raise SchedulingError("frozen tasks of unplanned jobs belong in the base")
        base = FrozenBase(resources, result.mode is FormulationMode.JOINT)
        base.add(orphans)
    if base is None:
        return {}
    result.model.base_ends = base.ends
    return base.profiles


def _build_combined(
    model: CpModel,
    result: FormulationResult,
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: int,
    running_by_id: Dict[str, TaskAssignment],
    base: Optional[FrozenBase],
) -> None:
    total_map = sum(r.map_capacity for r in resources)
    total_reduce = sum(r.reduce_capacity for r in resources)
    all_maps: List[IntervalVar] = []
    all_reduces: List[IntervalVar] = []
    for job in jobs:
        stage_ivs, preds, delays, terminal = _make_task_intervals(
            model, result, job, now, running_by_id
        )
        if not any(stage_ivs):
            continue
        _add_job_structure(
            model, result, job, stage_ivs, preds, delays, terminal, now
        )
        for ivs in stage_ivs:
            for iv in ivs:
                task = result.task_of[iv]
                (all_maps if task.kind is TaskKind.MAP else all_reduces).append(iv)
    load = _base_profiles(result, resources, running_by_id, base)
    for kind, ivs, total in (
        (TaskKind.MAP, all_maps, total_map),
        (TaskKind.REDUCE, all_reduces, total_reduce),
    ):
        if ivs:
            if total <= 0:
                raise SchedulingError(
                    f"{kind.value} tasks present but no {kind.value} slots"
                )
            model.add_cumulative(
                ivs, total, name=f"combined-{kind.value}", base=load.get(kind)
            )


def _build_joint(
    model: CpModel,
    result: FormulationResult,
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: int,
    running_by_id: Dict[str, TaskAssignment],
    base: Optional[FrozenBase],
) -> None:
    # Per-resource option pools, filled as alternatives are created.
    map_options: Dict[int, List[IntervalVar]] = {r.id: [] for r in resources}
    reduce_options: Dict[int, List[IntervalVar]] = {r.id: [] for r in resources}

    for job in jobs:
        stage_ivs, preds, delays, terminal = _make_task_intervals(
            model, result, job, now, running_by_id
        )
        if not any(stage_ivs):
            continue
        _add_job_structure(
            model, result, job, stage_ivs, preds, delays, terminal, now
        )

        for iv in [iv for ivs in stage_ivs for iv in ivs]:
            task = result.task_of[iv]
            pool = map_options if task.kind is TaskKind.MAP else reduce_options
            frozen = running_by_id.get(task.id)
            options: List[IntervalVar] = []
            if frozen is not None:
                # A running task stays on its resource: a single option.
                candidates: List[Resource] = [
                    r for r in resources if r.id == frozen.resource_id
                ]
                if not candidates:
                    raise SchedulingError(
                        f"running task {task.id} on unknown resource "
                        f"{frozen.resource_id}"
                    )
            else:
                candidates = [
                    r
                    for r in resources
                    if (
                        r.map_capacity
                        if task.kind is TaskKind.MAP
                        else r.reduce_capacity
                    )
                    > 0
                ]
                if not candidates:
                    raise SchedulingError(
                        f"no resource has {task.kind.value} slots for {task.id}"
                    )
            for r in candidates:
                opt = model.interval_var(
                    length=iv.length,
                    est=iv.est,
                    lst=iv.lst,
                    name=f"{task.id}@r{r.id}",
                    optional=True,
                    demand=task.demand,
                    payload=task,
                )
                result.resource_of_option[opt] = r.id
                options.append(opt)
                pool[r.id].append(opt)
            model.add_alternative(iv, options, name=f"alt({task.id})")

    load = _base_profiles(result, resources, running_by_id, base)
    for r in resources:
        if map_options[r.id]:
            model.add_cumulative(
                map_options[r.id],
                capacity=r.map_capacity,
                name=f"map(r{r.id})",
                base=load.get((r.id, TaskKind.MAP)),
            )
        if reduce_options[r.id]:
            model.add_cumulative(
                reduce_options[r.id],
                capacity=r.reduce_capacity,
                name=f"reduce(r{r.id})",
                base=load.get((r.id, TaskKind.REDUCE)),
            )
