"""Solution and result containers for the CP solver."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cp.model import CpModel
from repro.cp.variables import IntervalVar


class SolveStatus(enum.Enum):
    """Outcome of a solve call (mirrors CP Optimizer's statuses)."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """A complete assignment: start times plus alternative choices.

    ``starts`` maps every mandatory (master) interval to its start time.
    ``choices`` maps each alternative's master interval to the chosen option
    interval (empty for models without matchmaking variables).
    """

    starts: Dict[IntervalVar, int]
    choices: Dict[IntervalVar, IntervalVar] = field(default_factory=dict)
    objective: Optional[int] = None

    def start_of(self, iv: IntervalVar) -> int:
        """Assigned start time of ``iv``."""
        return self.starts[iv]

    def end_of(self, iv: IntervalVar) -> int:
        """Assigned completion time of ``iv``."""
        return self.starts[iv] + iv.length

    def chosen_option(self, master: IntervalVar) -> Optional[IntervalVar]:
        """The resource copy selected for ``master`` (None without alternatives)."""
        return self.choices.get(master)

    def copy(self) -> "Solution":
        """Independent shallow copy (same interval keys, fresh dicts)."""
        return Solution(dict(self.starts), dict(self.choices), self.objective)

    def evaluate_objective(self, model: CpModel) -> int:
        """Recompute ``sum(N_j)`` from the actual schedule.

        This is the ground truth used when reporting: an indicator variable
        may legally be 1 for an on-time job under the paper's one-directional
        constraint (4), so we always count lateness from completion times.
        """
        late = 0
        for spec in model.indicators:
            completion = max(self.end_of(t) for t in spec.tasks)
            if completion > spec.deadline:
                late += 1
        return late


@dataclass
class SearchStats:
    """Search effort counters, accumulated across solver phases."""

    branches: int = 0
    fails: int = 0
    solutions: int = 0
    propagations: int = 0
    lns_iterations: int = 0
    wall_time: float = 0.0
    #: ---- per-phase wall time of one solve (seconds; set by the solver
    #: facade, summed additively by :meth:`merge` across solves) ----
    #: root propagation before any search
    propagate_time: float = 0.0
    #: list-scheduling warm starts (including the hint replay)
    warm_start_time: float = 0.0
    #: branch-and-bound tree search
    tree_time: float = 0.0
    #: large-neighbourhood improvement
    lns_time: float = 0.0
    #: why LNS stopped: ``"target"``, ``"stagnated"`` or ``"deadline"``
    #: (None when it never ran; not accumulated by :meth:`merge`)
    lns_stop: Optional[str] = None

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another phase's counters into this one."""
        self.branches += other.branches
        self.fails += other.fails
        self.solutions += other.solutions
        self.propagations += other.propagations
        self.lns_iterations += other.lns_iterations
        self.wall_time += other.wall_time
        self.propagate_time += other.propagate_time
        self.warm_start_time += other.warm_start_time
        self.tree_time += other.tree_time
        self.lns_time += other.lns_time


@dataclass
class SolveProfile:
    """Deep profile of one solve (attached when profiling is enabled).

    ``solved_by`` attributes the returned incumbent to the phase that
    produced it: ``"hint"`` (previous plan replay), ``"warm_start"``
    (list-scheduling heuristics), ``"tree"`` (branch-and-bound improved
    it), ``"lns"`` (LNS improved it), or ``"none"`` (no solution).
    """

    #: warm-start incumbent's objective (None when no warm start succeeded)
    warm_start_objective: Optional[int] = None
    #: objective of the returned solution (None when there is none)
    final_objective: Optional[int] = None
    solved_by: str = "none"
    #: whether tree search / LNS strictly improved the incumbent
    improved_by_tree: bool = False
    improved_by_lns: bool = False
    #: why LNS stopped (``SearchStats.lns_stop``; None when it never ran)
    lns_stop: Optional[str] = None
    #: wall seconds inside ``Engine.propagate`` across all phases
    engine_propagate_time: float = 0.0
    #: number of ``Engine.propagate`` fixpoint runs
    engine_propagate_calls: int = 0
    #: per-propagator-class effort: name -> {"runs", "prunes", "fails"}
    propagators: Dict[str, Dict[str, int]] = field(default_factory=dict)


@dataclass
class SolveResult:
    """What :class:`~repro.cp.solver.CpSolver` returns."""

    status: SolveStatus
    solution: Optional[Solution]
    stats: SearchStats = field(default_factory=SearchStats)
    #: Present when the solver ran with profiling enabled.
    profile: Optional[SolveProfile] = None

    @property
    def objective(self) -> Optional[int]:
        return None if self.solution is None else self.solution.objective

    @property
    def budget_exhausted(self) -> bool:
        """Whether the solve ran out of budget without reaching a verdict.

        ``UNKNOWN`` means the time/fail budget expired with neither an
        incumbent nor an infeasibility proof -- the solver-health signal
        circuit breakers key on.  A proven ``INFEASIBLE`` is the
        *instance's* fault, not the solver's, and must not trip them.
        """
        return self.status is SolveStatus.UNKNOWN

    def __bool__(self) -> bool:
        return self.status.has_solution
