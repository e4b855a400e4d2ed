"""Solver facade: warm start -> branch-and-bound -> LNS under one budget.

This mirrors how MRCP-RM drives CP Optimizer (Table 2, lines 19-24): build
the model, solve it with the engine's default search, extract the decision
variables, and treat "no solution" as an exceptional condition.  The phases:

1. **Root propagation.**  An immediate wipe-out means the frozen-task
   constraints are inconsistent with the windows -> ``INFEASIBLE``.
2. **Warm start.**  The caller's hint (the previous plan), then EDF /
   least-laxity / input-order list schedules; the best becomes the incumbent
   once :func:`~repro.cp.checker.check_solution` accepts it.  Zero late jobs
   is provably optimal (the objective is bounded below by 0), so the solver
   returns straight away -- this is the common case in the paper's
   experiments, where P stays under a few percent.
3. **Tree search.**  One fail-limited schedule-or-postpone branch-and-bound
   dive pushing the incumbent down, on :data:`TREE_TIME_SHARE` of what is
   left of the budget.
4. **LNS.**  Remaining time is spent relaxing late jobs plus their temporal
   neighbours and re-solving, until the target, stagnation or the deadline
   stops it.

Whatever phase produced it, the solution returned has passed
``check_solution``; there is no switch to turn that off.

Observability: each phase is timed into :class:`SearchStats`
(``propagate_time`` / ``warm_start_time`` / ``tree_time`` / ``lns_time``)
and, when a :class:`~repro.obs.trace.Tracer` is attached, emitted as a span
(``cp.propagate`` / ``cp.warm_start`` / ``cp.search`` / ``cp.lns``; phases
the solve never entered appear as zero-duration spans marked ``skipped``).
With profiling on (``SolverParams.profile`` or an enabled tracer) the
returned :class:`~repro.cp.solution.SolveResult` carries a
:class:`~repro.cp.solution.SolveProfile` with per-propagator-class effort
counters, warm-start vs. improvement attribution and why LNS stopped (also
the ``stop`` annotation of the ``cp.lns`` span).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.cp.checker import check_solution
from repro.cp.errors import Infeasible
from repro.cp.heuristics import ORDERINGS, best_warm_start, list_schedule
from repro.cp.instrument import EngineProfile
from repro.cp.lns import LnsParams, lns_improve
from repro.cp.model import CpModel
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.solution import (
    SearchStats,
    SolveProfile,
    SolveResult,
    SolveStatus,
)
from repro.obs.trace import NULL_TRACER, Tracer

#: Phase span names emitted per solve (skipped phases become zero spans).
PHASE_SPANS = ("cp.propagate", "cp.warm_start", "cp.search", "cp.lns")

#: Fraction of the budget left after the warm start that the tree-search
#: phase may use; the rest is LNS's.
TREE_TIME_SHARE = 0.4


@dataclass
class SolverParams:
    """Tunable knobs, all with sensible defaults for MRCP-RM-sized models."""

    #: Wall-clock budget for the whole solve (seconds).
    time_limit: float = 5.0
    #: Fail limit for the dedicated tree-search phase (None = unlimited).
    tree_fail_limit: Optional[int] = 2000
    #: Warm-start orderings to try, in order.
    warm_start_orders: Sequence[str] = ORDERINGS
    #: Right-branch policy: True = jump to the next interesting time
    #: (fast, dominance-based), False = exhaustive unit steps.
    jump_branching: bool = True
    #: Enable the LNS improvement phase.
    use_lns: bool = True
    #: LNS knobs; ``lns.seed`` is overwritten by :attr:`seed` on every solve.
    lns: LnsParams = field(default_factory=LnsParams)
    #: Collect per-propagator-class counters and a :class:`SolveProfile`
    #: even without a tracer attached (a tracer implies profiling).
    profile: bool = False
    seed: int = 0


class CpSolver:
    """Solves a :class:`~repro.cp.model.CpModel`."""

    def __init__(
        self,
        params: Optional[SolverParams] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.params = params or SolverParams()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def solve(self, model: CpModel, hint=None, **overrides) -> SolveResult:
        """Solve ``model``; keyword overrides patch :class:`SolverParams`.

        ``hint`` maps intervals to start times from a previous solution
        (MRCP-RM's incremental loop feeds the prior plan here).  A feasible
        hint becomes an extra warm-start candidate; an infeasible one is
        silently dropped.
        """
        params = replace(self.params, **overrides) if overrides else self.params
        tracer = self.tracer
        t_start = time.perf_counter()
        deadline = t_start + params.time_limit
        stats = SearchStats()
        profiling = params.profile or tracer.enabled
        profile = SolveProfile() if profiling else None
        phases_traced = set()

        engine = model.engine()
        engine.profile = EngineProfile() if profiling else None
        engine.reset()

        def finish(result: SolveResult) -> SolveResult:
            """Stamp wall time, attach the profile, emit skipped-phase spans."""
            stats.wall_time = time.perf_counter() - t_start
            if result.budget_exhausted:
                # Watchdog surface: budget ran out with no verdict.  The
                # resilience circuit breakers key on this (a proven
                # INFEASIBLE deliberately does not emit it).
                tracer.instant(
                    "cp.budget_exhausted",
                    "cp.phase",
                    {"time_limit": params.time_limit},
                )
            if profile is not None:
                ep = engine.profile
                if ep is not None:
                    profile.engine_propagate_time = ep.propagate_time
                    profile.engine_propagate_calls = ep.propagate_calls
                    profile.propagators = ep.as_dict()
                profile.final_objective = (
                    None if result.solution is None else result.solution.objective
                )
                result.profile = profile
            if tracer.enabled:
                for name in PHASE_SPANS:
                    if name not in phases_traced:
                        tracer.marker(name, "cp.phase", {"skipped": True})
            return result

        # ------------------------------------------------ 1. root propagation
        phases_traced.add("cp.propagate")
        t_phase = time.perf_counter()
        root_failed = False
        with tracer.span("cp.propagate", "cp.phase"):
            try:
                engine.propagate()
            except Infeasible:
                root_failed = True
        stats.propagate_time = time.perf_counter() - t_phase
        if root_failed:
            return finish(SolveResult(SolveStatus.INFEASIBLE, None, stats))

        if time.perf_counter() >= deadline:
            # Budget exhausted before the search could even warm-start
            # (e.g. a forced time_limit=0): report UNKNOWN and let the
            # caller degrade gracefully instead of pretending to search.
            return finish(SolveResult(SolveStatus.UNKNOWN, None, stats))

        has_objective = model.objective_bools is not None
        # Root lower bound: indicators already forced to 1 by propagation
        # are provably late in *every* schedule (their deadlines precede any
        # possible completion).  A warm start matching this bound is optimal
        # -- the common case in a backlogged open system, and the fast path
        # that keeps MRCP-RM's per-invocation overhead low.
        root_lb = 0
        if has_objective:
            root_lb = sum(b.domain.min for b in model.objective_bools)

        # ---------------------------------------------------- 2. warm start
        phases_traced.add("cp.warm_start")
        t_phase = time.perf_counter()
        best = None
        solved_by = "none"
        with tracer.span("cp.warm_start", "cp.phase"):
            if hint:
                hinted = list_schedule(
                    model, params.warm_start_orders[0], preplaced=hint
                )
                if hinted is not None and not check_solution(model, hinted):
                    best = hinted
                    solved_by = "hint"
            if best is None or (
                has_objective and best.objective not in (None, 0)
            ):
                from_orders = best_warm_start(model, params.warm_start_orders)
                if from_orders is not None and (
                    best is None
                    or best.objective is None
                    or (
                        from_orders.objective is not None
                        and from_orders.objective < best.objective
                    )
                ):
                    best = from_orders
                    solved_by = "warm_start"
        stats.warm_start_time = time.perf_counter() - t_phase
        # An accepted hint was checked on the way in; anything else is
        # checked here.  Defensive: heuristic bug -> discard, keep going.
        if (
            best is not None
            and solved_by != "hint"
            and check_solution(model, best)
        ):
            best = None
            solved_by = "none"
        if profile is not None:
            profile.warm_start_objective = (
                None if best is None else best.objective
            )
            profile.solved_by = solved_by
        if best is not None:
            stats.solutions += 1
            if not has_objective or best.objective <= root_lb:
                status = (
                    SolveStatus.OPTIMAL
                    if has_objective
                    else SolveStatus.FEASIBLE
                )
                return finish(SolveResult(status, best, stats))

        # --------------------------------------------------- 3. tree search
        brancher = SetTimesBrancher(model, jump=params.jump_branching)
        proven = False
        exhausted_empty = False
        remaining = deadline - time.perf_counter()
        if remaining > 0:
            phases_traced.add("cp.search")
            t_phase = time.perf_counter()
            incumbent_before = best
            with tracer.span("cp.search", "cp.phase"):
                limits = SearchLimits.from_budget(
                    time_budget=remaining * TREE_TIME_SHARE,
                    fail_limit=params.tree_fail_limit,
                )
                result = tree_search(
                    model,
                    engine,
                    brancher,
                    limits,
                    incumbent=best,
                    first_solution_only=not has_objective,
                )
            stats.merge(result.stats)
            stats.tree_time = time.perf_counter() - t_phase
            if result.best is not None:
                if result.best is not incumbent_before and profile is not None:
                    profile.improved_by_tree = True
                    profile.solved_by = "tree"
                best = result.best
            if result.exhausted:
                proven = brancher.complete or (
                    best is not None and best.objective == 0
                )
                exhausted_empty = best is None
        if (
            not proven
            and has_objective
            and best is not None
            and best.objective is not None
            and best.objective <= root_lb
        ):
            proven = True

        # ------------------------------------------------------------ 4. LNS
        if (
            has_objective
            and params.use_lns
            and not proven
            and best is not None
            and best.objective not in (None, 0)
            and time.perf_counter() < deadline
        ):
            phases_traced.add("cp.lns")
            t_phase = time.perf_counter()
            incumbent_before = best
            with tracer.span("cp.lns", "cp.phase") as span:
                lns_params = replace(params.lns, seed=params.seed)
                best, lns_stats = lns_improve(
                    model,
                    engine,
                    best,
                    deadline,
                    params=lns_params,
                    jump=params.jump_branching,
                    target=root_lb,
                )
                span.add(stop=lns_stats.lns_stop)
            stats.merge(lns_stats)
            stats.lns_iterations = lns_stats.lns_iterations
            stats.lns_stop = lns_stats.lns_stop
            stats.lns_time = time.perf_counter() - t_phase
            if profile is not None:
                profile.lns_stop = lns_stats.lns_stop
                if best is not incumbent_before:
                    profile.improved_by_lns = True
                    profile.solved_by = "lns"

        if best is None:
            # No heuristic solution and the budgeted search found nothing.
            # A *complete* exhausted search is a proof of infeasibility.
            if exhausted_empty and brancher.complete:
                return finish(SolveResult(SolveStatus.INFEASIBLE, None, stats))
            return finish(SolveResult(SolveStatus.UNKNOWN, None, stats))
        violations = check_solution(model, best)
        if violations:
            raise AssertionError(
                "solver produced an invalid solution:\n  "
                + "\n  ".join(violations)
            )
        if has_objective and (proven or best.objective == 0):
            return finish(SolveResult(SolveStatus.OPTIMAL, best, stats))
        return finish(SolveResult(SolveStatus.FEASIBLE, best, stats))
