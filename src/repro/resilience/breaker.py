"""Solver circuit breaker and the four-rung degradation ladder.

A long-running resource manager cannot afford a CP solver that keeps
timing out: every failed full solve burns its whole budget before the
fallback saves the invocation.  The classic remedy is a *circuit
breaker* -- after ``failure_threshold`` consecutive failures the breaker
*opens* and subsequent invocations skip the failing strategy outright;
after a cooldown it *half-opens* and lets one probe attempt through, and
a probe success closes it again.

Here the breaker guards each rung of a degradation ladder:

1. ``cp_full``    -- the configured CP solve (warm start + tree + LNS).
2. ``cp_limited`` -- a warm-started, tightly fail-limited CP solve
   (cheap: the warm start does the work, the tree gets a token budget).
3. ``edf``        -- the EDF list schedule (PR 1's fallback; always
   respects hard constraints, lateness just shows up in N).
4. ``greedy``     -- admission-only placement: the previous plan is kept
   pinned and only the newly arrived work is placed greedily around it.
   This is the floor; it re-plans nothing and cannot time out.

Within one invocation the ladder walks downward until a rung yields a
schedule, so the run always makes progress; across invocations the
breakers remember which rungs are failing and start lower, which is what
caps the overhead of a pathological stretch.  Every rung use is counted
(registry + metrics collector), traced (one span per attempted rung,
an instant per breaker transition), and recorded in the plan history so
forensics and the HTML report can attribute degraded decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cp.checker import check_solution
from repro.cp.heuristics import list_schedule
from repro.cp.model import CpModel
from repro.cp.solution import SolveResult, Solution
from repro.cp.solver import CpSolver
from repro.obs.logs import get_logger, kv
from repro.obs.trace import NULL_TRACER, Tracer

_LOG = get_logger("resilience.breaker")

#: Ladder rungs, strongest first.  ``greedy`` is the floor: it cannot
#: time out, so the ladder never returns empty-handed unless the frozen
#: state itself is infeasible.
RUNGS = ("cp_full", "cp_limited", "edf", "greedy")

#: Breaker states (the textbook three-state machine).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class InjectedSolverFailures:
    """Deterministic solver-layer chaos: force the first N calls of a rung
    to fail.

    The chaos harness uses this to drive the ladder through every rung
    without needing a genuinely pathological CP instance: a forced
    failure short-circuits the rung (no budget is burned, no RNG is
    consumed) and the ladder escalates exactly as it would for a real
    timeout.  This is configuration only: each :class:`DegradationLadder`
    counts the attempts it has failed (and checkpoints that count), so one
    config replays identically in any number of runs.
    """

    #: rung name -> number of initial attempts of that rung to fail.
    counts: Dict[str, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        # Sorted, so equal budgets repr (and fingerprint) identically.
        return f"InjectedSolverFailures(counts={dict(sorted(self.counts.items()))!r})"


@dataclass
class LadderConfig:
    """Knobs of the degradation ladder and its per-rung breakers."""

    #: Consecutive failures of a rung before its breaker opens.
    failure_threshold: int = 2
    #: Invocations a breaker stays open before half-opening one probe.
    cooldown: int = 4
    #: Budget of the ``cp_limited`` rung (seconds / tree fails).
    limited_time_limit: float = 0.1
    limited_fail_limit: int = 100
    #: Deterministic failure injection (chaos harness only; None = off).
    chaos: Optional[InjectedSolverFailures] = None


class CircuitBreaker:
    """Three-state breaker guarding one ladder rung."""

    __slots__ = (
        "rung",
        "threshold",
        "cooldown",
        "state",
        "failures",
        "cooldown_left",
        "opened_count",
    )

    def __init__(self, rung: str, threshold: int, cooldown: int) -> None:
        self.rung = rung
        self.threshold = max(1, threshold)
        self.cooldown = max(1, cooldown)
        self.state = CLOSED
        self.failures = 0  # consecutive
        self.cooldown_left = 0
        self.opened_count = 0

    def allow(self) -> bool:
        """Whether the guarded rung may be attempted this invocation.

        While open, each query burns one cooldown tick; when the cooldown
        expires the breaker half-opens and admits a single probe.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self.cooldown_left -= 1
            if self.cooldown_left > 0:
                return False
            self.state = HALF_OPEN
        return True  # half-open probe

    def record(self, success: bool) -> Optional[Tuple[str, str]]:
        """Record an attempt outcome; returns a (from, to) transition."""
        before = self.state
        if success:
            self.failures = 0
            self.state = CLOSED
        elif self.state == HALF_OPEN:
            # Failed probe: straight back to open for another cooldown.
            self.state = OPEN
            self.cooldown_left = self.cooldown
            self.opened_count += 1
        else:
            self.failures += 1
            if self.failures >= self.threshold:
                self.state = OPEN
                self.cooldown_left = self.cooldown
                self.opened_count += 1
        return (before, self.state) if self.state != before else None

    # ---------------------------------------------------------- checkpoint
    def snapshot(self) -> Dict[str, int | str]:
        """The breaker's complete mutable state (checkpoint surface)."""
        return {
            "state": self.state,
            "failures": self.failures,
            "cooldown_left": self.cooldown_left,
            "opened_count": self.opened_count,
        }

    def restore(self, snap: Dict[str, int | str]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.state = str(snap["state"])
        self.failures = int(snap["failures"])
        self.cooldown_left = int(snap["cooldown_left"])
        self.opened_count = int(snap["opened_count"])


@dataclass
class LadderOutcome:
    """What one ladder-mediated solve produced."""

    solution: Optional[Solution]
    #: The rung that produced ``solution`` ("none" when every rung failed).
    rung: str
    #: The CP solve result when a CP rung ran last (None for heuristics).
    result: Optional[SolveResult]
    #: Rungs attempted this invocation, in order, with success flags.
    attempts: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the plan came from anything below the full CP solve."""
        return self.rung != "cp_full"


class DegradationLadder:
    """Walks the rungs under per-rung circuit breakers."""

    def __init__(
        self,
        config: LadderConfig,
        solver: CpSolver,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.solver = solver
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The floor rung has no breaker: there is nothing to skip to.
        self.breakers: Dict[str, CircuitBreaker] = {
            rung: CircuitBreaker(rung, config.failure_threshold, config.cooldown)
            for rung in RUNGS[:-1]
        }
        registry = self.tracer.registry
        self._m_rung = {
            rung: registry.counter(f"resilience.rung_used.{rung}")
            for rung in RUNGS
        }
        self._m_opened = registry.counter("resilience.breaker_opened")
        #: Attempts per rung already failed by injection (``config.chaos``).
        self._chaos_used: Dict[str, int] = {}

    # ------------------------------------------------------------- solving
    def solve(
        self,
        model: CpModel,
        hint: Optional[Dict] = None,
        start_rung: str = "cp_full",
    ) -> LadderOutcome:
        """One ladder-mediated solve: walk the rungs, remember failures.

        ``start_rung`` lets an overloaded caller skip the expensive top of
        the ladder *for this invocation only* (the admission service does
        this when its arrival queue backs up): rungs above it are neither
        attempted nor charged against their breakers.
        """
        if start_rung not in RUNGS:
            raise ValueError(
                f"unknown ladder rung {start_rung!r}; expected one of {RUNGS}"
            )
        tracer = self.tracer
        attempts: List[Tuple[str, bool]] = []
        last_result: Optional[SolveResult] = None
        for rung in RUNGS[RUNGS.index(start_rung) :]:
            breaker = self.breakers.get(rung)
            if breaker is not None and not breaker.allow():
                continue  # breaker open: skip straight to the next rung
            with tracer.span("resilience.rung", "resilience", {"rung": rung}) as span:
                solution, result = self._attempt(rung, model, hint)
                if tracer.enabled:
                    span.add(success=solution is not None)
            if result is not None:
                last_result = result
            success = solution is not None
            attempts.append((rung, success))
            if breaker is not None:
                # A proven INFEASIBLE is the instance's fault, not the
                # solver's: the ladder still escalates this invocation,
                # but the rung's health record is left untouched so a
                # healthy solver is not locked out by one bad instance.
                infeasible = (
                    not success and result is not None and not result.budget_exhausted
                )
                if not infeasible:
                    transition = breaker.record(success)
                    if transition is not None:
                        self._note_transition(rung, transition)
            if success:
                self._m_rung[rung].inc()
                if rung != "cp_full":
                    _LOG.warning(
                        "degraded solve %s",
                        kv(rung=rung, tried=len(attempts)),
                    )
                return LadderOutcome(solution, rung, last_result, attempts)
        return LadderOutcome(None, "none", last_result, attempts)

    def _attempt(
        self, rung: str, model: CpModel, hint: Optional[Dict]
    ) -> Tuple[Optional[Solution], Optional[SolveResult]]:
        if self._inject_failure(rung):
            return None, None
        if rung == "cp_full":
            result = self.solver.solve(model, hint=hint)
            return result.solution, result
        if rung == "cp_limited":
            result = self.solver.solve(
                model,
                hint=hint,
                time_limit=self.config.limited_time_limit,
                tree_fail_limit=self.config.limited_fail_limit,
                use_lns=False,
            )
            return result.solution, result
        if rung == "edf":
            return list_schedule(model, "edf"), None
        # greedy: admission-only -- keep the previous plan pinned and place
        # just the new work around it; with no previous plan (or a stale
        # one, which the checker rejects as ``CpSolver`` does a hint) fall
        # back to plain input-order placement.
        solution = None
        if hint:
            solution = list_schedule(model, "edf", preplaced=hint)
            if solution is not None and check_solution(model, solution):
                solution = None
        if solution is None:
            solution = list_schedule(model, "input")
        return solution, None

    def _inject_failure(self, rung: str) -> bool:
        """Whether ``config.chaos`` forces this attempt of ``rung`` to fail."""
        chaos = self.config.chaos
        if chaos is None:
            return False
        used = self._chaos_used.get(rung, 0)
        if used >= chaos.counts.get(rung, 0):
            return False
        self._chaos_used[rung] = used + 1
        return True

    def _note_transition(self, rung: str, transition: Tuple[str, str]) -> None:
        before, after = transition
        if after == OPEN:
            self._m_opened.inc()
        _LOG.warning(
            "breaker transition %s",
            kv(rung=rung, before=before, after=after),
        )
        self.tracer.instant(
            "resilience.breaker",
            "resilience",
            args={"rung": rung, "from": before, "to": after},
        )

    # ---------------------------------------------------------- checkpoint
    def snapshot(self) -> Dict[str, object]:
        """Complete mutable ladder state (checkpoint surface)."""
        snap: Dict[str, object] = {
            "breakers": {
                rung: b.snapshot() for rung, b in sorted(self.breakers.items())
            }
        }
        if self.config.chaos is not None:
            snap["chaos"] = dict(sorted(self._chaos_used.items()))
        return snap

    def restore(self, snap: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        for rung, state in dict(snap.get("breakers", {})).items():
            if rung in self.breakers:
                self.breakers[rung].restore(state)
        if self.config.chaos is not None and "chaos" in snap:
            self._chaos_used = {str(k): int(v) for k, v in snap["chaos"].items()}

    @property
    def opened_total(self) -> int:
        """Total open transitions across all breakers."""
        return sum(b.opened_count for b in self.breakers.values())
