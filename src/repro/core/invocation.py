"""The scheduler invocation API: one solve, independent of the caller.

:class:`~repro.core.mrcp_rm.MrcpRm` runs Table 2 inside the discrete event
simulation; the online admission front-end (:mod:`repro.service`) runs the
same solve against wall-clock arrivals.  Both plan through
:func:`solve_invocation`: in COMBINED mode the warm start first runs
straight on the slot profiles, and a schedule with no late job is the
answer; otherwise the Table 1 model is built and solved
(:func:`solve_formulation`: plain solver with EDF fallback, or the
resilience degradation ladder).  The outcome reports everything the
caller's metric envelope needs and never raises on "no solution": the
simulator crashes, admission control rejects.  :func:`extract_assignments`
maps the answer onto physical resources (Section V.D decomposition or
joint slots).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.formulation import (
    FormulationMode,
    FormulationResult,
    build_model,
    direct_attempts,
)
from repro.core.matchmaking import (
    FrozenBase,
    assign_slots_within_resources,
    decompose_combined_schedule,
)
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.cp.heuristics import list_schedule
from repro.cp.model import CpModel
from repro.cp.solution import Solution, SolveResult
from repro.cp.solver import CpSolver
from repro.resilience.breaker import InvocationOutcome
from repro.workload.entities import Job, Resource


def solve_formulation(
    formulate: Callable[[], Tuple[CpModel, Optional[Dict]]],
    *,
    solver: CpSolver,
    ladder=None,
    start_rung: str = "cp_full",
    direct: Optional[Callable[..., Optional[Tuple[object, SolveResult]]]] = None,
) -> InvocationOutcome:
    """Solve one invocation through the configured strategy stack.

    ``direct(**solver overrides)`` answers first where it can; ``formulate()``
    builds the model and hint only where it does not.  With ``ladder`` the
    solve walks the rungs from ``start_rung`` (the service starts at
    ``cp_limited`` when overloaded); otherwise it is one budgeted CP solve
    with an EDF list-schedule fallback.
    """
    if ladder is not None:
        return ladder.solve(formulate, start_rung=start_rung, direct=direct)
    answer = direct() if direct is not None else None
    if answer is not None:
        return InvocationOutcome(solution=answer[0], result=answer[1])
    model, hint = formulate()
    result = solver.solve(model, hint=hint)
    if result:
        return InvocationOutcome(solution=result.solution, result=result)
    # Graceful degradation: the budgeted CP solve came back empty (e.g. a
    # forced timeout).  The EDF list schedule satisfies every hard
    # constraint -- deadline misses just show up in N -- so the run
    # continues instead of crashing.
    solution = list_schedule(model, "edf")
    if solution is not None:
        return InvocationOutcome(solution=solution, result=result, fallback=True)
    return InvocationOutcome(solution=None, result=result)


def extract_assignments(
    formulation: FormulationResult,
    solution: Solution,
    running: Sequence[TaskAssignment],
    resources: Sequence[Resource],
    base: Optional[FrozenBase] = None,
) -> List[TaskAssignment]:
    """Map a solution onto physical resources (both formulation modes).

    Returns the complete assignment list: frozen ``running`` entries pass
    through unchanged, movable tasks get fresh slot placements -- or, with
    the standing ``base`` the model was built on, are booked on it.  A
    direct answer has no formulation (None): its ``solution`` is already
    the movable (task, start) pairs.
    """
    if formulation is None:
        return decompose_combined_schedule(solution, running, resources, base)
    frozen_ids = {a.task.id for a in running}
    combined = formulation.mode is FormulationMode.COMBINED
    movable: List[tuple] = []
    for task_id, iv in formulation.interval_of.items():
        if task_id in frozen_ids:
            continue
        placed = (formulation.task_of[iv], solution.start_of(iv))
        if not combined:
            option = solution.chosen_option(iv)
            if option is None:
                raise SchedulingError(
                    f"joint solution lacks a resource choice for {task_id}"
                )
            placed += (formulation.resource_of_option[option],)
        movable.append(placed)
    if combined:
        return decompose_combined_schedule(movable, running, resources, base)
    return assign_slots_within_resources(movable, running, resources, base)


def solve_invocation(
    jobs: Sequence[Job],
    resources: Sequence[Resource],
    now: int,
    *,
    running: Sequence[TaskAssignment] = (),
    mode: FormulationMode = FormulationMode.COMBINED,
    base: Optional[FrozenBase] = None,
    solver: CpSolver,
    ladder=None,
    hint_starts: Optional[Dict[str, int]] = None,
    start_rung: str = "cp_full",
) -> Tuple[InvocationOutcome, Optional[FormulationResult]]:
    """Plan one invocation: the entry point of both callers.

    ``running`` and ``base`` are :func:`~repro.core.formulation.build_model`'s.
    ``hint_starts`` maps task ids (not interval variables -- those are
    per-model objects) to previous-plan start times; entries for tasks
    absent from this plan or starting in the past are dropped.

    In COMBINED mode the warm start first runs straight on the slot
    profiles (:func:`~repro.core.formulation.direct_attempts`): if it
    closes, that is the answer and the returned formulation is None.  Only
    otherwise is the Table 1 model built and solved.
    """
    live = {t.id for job in jobs for t in job.tasks if not t.is_completed}
    hints = {t: s for t, s in (hint_starts or {}).items() if t in live and s >= now}
    attempts = None
    if mode is FormulationMode.COMBINED:
        attempts = direct_attempts(jobs, resources, now, running, base, hints)
    formulation: Optional[FormulationResult] = None

    def formulate() -> Tuple[CpModel, Optional[Dict]]:
        nonlocal formulation
        if formulation is None:
            formulation = build_model(jobs, resources, now, running, mode, base)
        hint = {formulation.interval_of[t]: s for t, s in hints.items()}
        return formulation.model, hint or None

    def direct(**overrides):
        # Once the model is built, the warm start has already fallen through.
        if attempts is not None and formulation is None:
            return solver.solve_direct(*attempts, **overrides)
        return None

    outcome = solve_formulation(
        formulate, solver=solver, ladder=ladder, start_rung=start_rung, direct=direct
    )
    return outcome, formulation
