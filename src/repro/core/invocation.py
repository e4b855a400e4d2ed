"""The scheduler invocation API: one solve, independent of the caller.

:class:`~repro.core.mrcp_rm.MrcpRm` runs Table 2 inside the discrete event
simulation; the online admission front-end (:mod:`repro.service`) runs the
same solve against wall-clock arrivals.  Both need the identical core --
build the Table 1 model, solve it (plain solver with EDF fallback, or
through the resilience degradation ladder), and map the solution back onto
physical resources -- so that core lives here, caller-agnostic:

* :func:`solve_formulation` -- solve an already-built formulation and
  report *everything* the caller's metric/observability envelope needs
  (CP result, ladder rung, attempts, fallback flag).  It never raises on
  "no solution": callers decide whether that is a crash (the simulator
  loop) or a rejection (admission control).
* :func:`extract_assignments` -- decompose a solution into
  :class:`~repro.core.schedule.TaskAssignment` lists for either
  formulation mode (Section V.D combined decomposition or joint slots).
* :func:`solve_invocation` -- the one-stop build + solve + extract used by
  the service path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.formulation import FormulationMode, FormulationResult, build_model
from repro.core.matchmaking import (
    FrozenBase,
    assign_slots_within_resources,
    decompose_combined_schedule,
)
from repro.core.schedule import SchedulingError, TaskAssignment
from repro.cp.heuristics import list_schedule
from repro.cp.solution import Solution, SolveResult
from repro.cp.solver import CpSolver
from repro.workload.entities import Job, Resource


@dataclass
class InvocationOutcome:
    """What one scheduler invocation's solve produced.

    ``solution is None`` means every strategy failed; ``describe_failure``
    renders the caller-facing error text (the historical
    :class:`SchedulingError` messages, verbatim).
    """

    #: The schedule, or None when every strategy came back empty.
    solution: Optional[Solution]
    #: Ladder rung that produced the solution ("cp_full" on the plain
    #: path, "none" when nothing did).
    rung: str = "cp_full"
    #: The last CP solve result, when a CP strategy actually ran.
    result: Optional[SolveResult] = None
    #: Whether the plain path degraded to the EDF list schedule.
    fallback: bool = False
    #: Ladder rungs attempted, in order, with success flags (empty on the
    #: plain path).
    attempts: List[Tuple[str, bool]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.solution is not None

    def describe_failure(self, now: int, jobs: Sequence[Job], running_count: int) -> str:
        """The error text for a failed invocation (caller raises it)."""
        if self.attempts:
            tried = ", ".join(r for r, _ in self.attempts) or "none"
            return (
                f"degradation ladder exhausted at t={now} ({len(jobs)} jobs; "
                f"rungs tried: {tried})"
            )
        status = self.result.status.value if self.result is not None else "none"
        return (
            f"CP solver returned {status} at t={now} "
            f"({len(jobs)} jobs, {running_count} running tasks) and no "
            f"heuristic fallback schedule exists"
        )


def solve_formulation(
    formulation: FormulationResult,
    *,
    solver: CpSolver,
    ladder=None,
    hint: Optional[Dict] = None,
    start_rung: str = "cp_full",
) -> InvocationOutcome:
    """Solve a built formulation through the configured strategy stack.

    With ``ladder`` set the solve walks the degradation rungs (the ladder
    owns ``solver`` as its cp_full rung) beginning at ``start_rung`` --
    the admission service starts at ``cp_limited`` when overloaded;
    otherwise it is one budgeted CP solve with an EDF list-schedule
    fallback (``start_rung`` is ignored without a ladder).
    """
    if ladder is not None:
        outcome = ladder.solve(formulation.model, hint=hint, start_rung=start_rung)
        return InvocationOutcome(
            solution=outcome.solution,
            rung=outcome.rung,
            result=outcome.result,
            fallback=outcome.rung == "edf",
            attempts=list(outcome.attempts),
        )
    result = solver.solve(formulation.model, hint=hint)
    if result:
        return InvocationOutcome(solution=result.solution, result=result)
    # Graceful degradation: the budgeted CP solve came back empty (e.g. a
    # forced timeout).  The EDF list schedule satisfies every hard
    # constraint -- deadline misses just show up in N -- so the run
    # continues instead of crashing.
    solution = list_schedule(formulation.model, "edf")
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
    the standing ``base`` the model was built on, are booked on it.
    """
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
) -> Tuple[InvocationOutcome, FormulationResult]:
    """Build + solve one invocation (the service admission entry point).

    ``running`` and ``base`` are :func:`~repro.core.formulation.build_model`'s.
    ``hint_starts`` maps task ids (not interval variables -- those are
    per-model objects) to previous-plan start times; entries for tasks
    absent from the fresh model or starting in the past are dropped.
    """
    formulation = build_model(
        jobs, resources, now=now, running=running, mode=mode, base=base
    )
    hint = None
    if hint_starts:
        hint = {}
        for task_id, start in hint_starts.items():
            iv = formulation.interval_of.get(task_id)
            if iv is not None and start >= now:
                hint[iv] = start
        if not hint:
            hint = None
    outcome = solve_formulation(
        formulation,
        solver=solver,
        ladder=ladder,
        hint=hint,
        start_rung=start_rung,
    )
    return outcome, formulation
