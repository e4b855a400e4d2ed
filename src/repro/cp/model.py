"""User-facing CP model builder.

A :class:`CpModel` is a declarative specification: intervals, cumulative
capacities, barriers, alternatives and deadline indicators.  It compiles into
a :class:`~repro.cp.engine.Engine` exactly once; the engine can be rewound
and re-used by the solver's phases (warm start, branch-and-bound, LNS).

Beyond the raw constraint API the model tracks *groups* -- sets of intervals
that belong to one job -- because both the warm-start list scheduler and the
LNS relaxation operate job-wise, as MRCP-RM does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cp.engine import Engine
from repro.cp.errors import ModelError
from repro.cp.profile import TimetableProfile
from repro.cp.propagators import (
    AlternativePropagator,
    BarrierPropagator,
    CumulativePropagator,
    DeadlineIndicatorPropagator,
    EndBeforeStartPropagator,
    SumBoolBoundPropagator,
)
from repro.cp.variables import BoolVar, IntervalVar

DEFAULT_HORIZON = 10**7


@dataclass
class CumulativeSpec:
    """One ``cumulative`` constraint: intervals/demands under a capacity."""

    intervals: List[IntervalVar]
    demands: List[int]
    capacity: int
    name: str = ""
    #: Fixed load the intervals sit on; each consumer profiles a copy.
    base: Optional[TimetableProfile] = None


@dataclass
class BarrierSpec:
    """All of ``first`` complete (+ ``delay``) before any of ``second`` starts."""

    first: List[IntervalVar]
    second: List[IntervalVar]
    name: str = ""
    delay: int = 0


@dataclass
class PrecedenceSpec:
    """``a.end + delay <= b.start``."""

    a: IntervalVar
    b: IntervalVar
    delay: int = 0


@dataclass
class AlternativeSpec:
    """Master interval realised by exactly one of the optional ``options``."""

    master: IntervalVar
    options: List[IntervalVar]
    name: str = ""


@dataclass
class IndicatorSpec:
    """Reified lateness: ``indicator = (max end of tasks) > deadline``."""

    tasks: List[IntervalVar]
    deadline: int
    indicator: BoolVar
    name: str = ""


@dataclass
class Group:
    """A job-shaped bundle of intervals, used by heuristics and LNS.

    ``stages`` holds the job's execution stages in *topological order*;
    ``stage_preds[i]`` lists the indices of the stages that must complete
    before stage ``i`` may start.  A classic MapReduce job is the two-stage
    chain ``stages=[maps, reduces], stage_preds=[[], [0]]``; the workflow
    generalisation (paper Section VII future work) allows arbitrary DAGs.

    ``release`` is the earliest start, ``deadline`` the SLA deadline
    (None = best effort).
    """

    name: str
    stages: List[List[IntervalVar]]
    stage_preds: List[List[int]]
    release: int = 0
    deadline: Optional[int] = None
    indicator: Optional[BoolVar] = None
    #: Per-predecessor data-transfer delays, aligned with ``stage_preds``
    #: (None = all zero).
    stage_pred_delays: Optional[List[List[int]]] = None

    def __post_init__(self) -> None:
        if len(self.stages) != len(self.stage_preds):
            raise ModelError(
                f"group {self.name}: {len(self.stages)} stages but "
                f"{len(self.stage_preds)} predecessor lists"
            )
        for i, preds in enumerate(self.stage_preds):
            for p in preds:
                if not 0 <= p < i:
                    raise ModelError(
                        f"group {self.name}: stage {i} lists predecessor {p}; "
                        "stages must be given in topological order"
                    )
        if self.stage_pred_delays is None:
            self.stage_pred_delays = [
                [0] * len(preds) for preds in self.stage_preds
            ]
        elif [len(d) for d in self.stage_pred_delays] != [
            len(p) for p in self.stage_preds
        ]:
            raise ModelError(
                f"group {self.name}: stage_pred_delays shape mismatch"
            )

    # Two-stage accessors kept for the MapReduce-shaped call sites.
    @property
    def first_stage(self) -> List[IntervalVar]:
        return self.stages[0] if self.stages else []

    @property
    def second_stage(self) -> List[IntervalVar]:
        return self.stages[1] if len(self.stages) > 1 else []

    @property
    def intervals(self) -> List[IntervalVar]:
        return [iv for stage in self.stages for iv in stage]

    @property
    def total_length(self) -> int:
        return sum(iv.length for iv in self.intervals)

    def laxity(self) -> float:
        """Slack of the group: deadline - release - total work (paper VI.B)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.release - self.total_length


class CpModel:
    """Builder for cumulative scheduling models with SLA indicators."""

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        if horizon <= 0:
            raise ModelError(f"horizon must be positive, got {horizon}")
        self.horizon = int(horizon)
        self.intervals: List[IntervalVar] = []
        self.optionals: List[IntervalVar] = []
        self.cumulatives: List[CumulativeSpec] = []
        self.barriers: List[BarrierSpec] = []
        self.precedences: List[PrecedenceSpec] = []
        self.alternatives: List[AlternativeSpec] = []
        self.indicators: List[IndicatorSpec] = []
        self.groups: List[Group] = []
        self.objective_bools: Optional[List[BoolVar]] = None
        #: End times of the fixed work in the cumulatives' bases: the search
        #: jumps to them as to a decided interval's end.
        self.base_ends: Sequence[int] = ()
        #: Pristine start windows, captured at compile time; the checker
        #: validates solutions against these (domains mutate during search).
        self.original_windows: Dict[IntervalVar, tuple] = {}
        self._engine: Optional[Engine] = None
        self._names: Dict[str, int] = {}

    # -------------------------------------------------------------- helpers
    def _unique(self, name: str, prefix: str) -> str:
        if not name:
            name = f"{prefix}{len(self.intervals) + len(self.optionals)}"
        n = self._names.get(name, 0)
        self._names[name] = n + 1
        return name if n == 0 else f"{name}#{n}"

    def _check_sealed(self) -> None:
        if self._engine is not None:
            raise ModelError("model already compiled; create a new CpModel")

    # ------------------------------------------------------------ variables
    def interval_var(
        self,
        length: int,
        est: int = 0,
        lst: Optional[int] = None,
        name: str = "",
        optional: bool = False,
        demand: int = 1,
        payload: object = None,
    ) -> IntervalVar:
        """Create a task interval.

        ``est``/``lst`` bound the start window; ``lst`` defaults to the model
        horizon minus the task length.  ``optional=True`` creates a resource
        copy for use inside :meth:`add_alternative`.
        """
        if self._engine is not None:
            self._check_sealed()
        if lst is None:
            lst = self.horizon - length
        if lst < est:
            raise ModelError(
                f"interval {name!r}: start window [{est}, {lst}] is empty "
                f"(horizon {self.horizon} too small?)"
            )
        iv = IntervalVar(
            est,
            lst,
            length,
            name=self._unique(name, "iv"),
            optional=optional,
            demand=demand,
            payload=payload,
        )
        (self.optionals if optional else self.intervals).append(iv)
        return iv

    def fixed_interval(
        self,
        start: int,
        length: int,
        name: str = "",
        demand: int = 1,
        payload: object = None,
    ) -> IntervalVar:
        """A frozen task: already dispatched, occupying ``[start, start+len)``.

        This is how MRCP-RM encodes tasks that have started executing (Table
        2, line 11): the interval participates in the cumulative profile but
        the solver cannot move it.
        """
        return self.interval_var(
            length, est=start, lst=start, name=name, demand=demand, payload=payload
        )

    # ----------------------------------------------------------- constraints
    def add_cumulative(
        self,
        intervals: Sequence[IntervalVar],
        capacity: int,
        demands: Optional[Sequence[int]] = None,
        name: str = "",
        base: Optional[TimetableProfile] = None,
    ) -> CumulativeSpec:
        """Capacity constraint (Table 1, constraints 5/6): the summed demand of overlapping intervals never exceeds ``capacity``.

        ``base`` is load already on the resource (work that cannot move);
        compiling and every check copy it, so it must not change meanwhile.
        """
        self._check_sealed()
        ivs = list(intervals)
        if demands is None:
            demands = [iv.demand for iv in ivs]
        demands = [int(d) for d in demands]
        if len(demands) != len(ivs):
            raise ModelError("demands must match intervals")
        if capacity < 0:
            raise ModelError(f"negative capacity {capacity}")
        for iv, d in zip(ivs, demands):
            if d > capacity and iv.length > 0:
                if not iv.is_optional:
                    raise ModelError(
                        f"interval {iv.name}: demand {d} can never fit "
                        f"capacity {capacity}"
                    )
        spec = CumulativeSpec(ivs, demands, int(capacity), name or f"cum{len(self.cumulatives)}", base)
        self.cumulatives.append(spec)
        return spec

    def add_barrier(
        self,
        first: Sequence[IntervalVar],
        second: Sequence[IntervalVar],
        name: str = "",
        delay: int = 0,
    ) -> Optional[BarrierSpec]:
        """Map/reduce barrier: constraint (3) of the paper's formulation.

        ``delay`` inserts a data-transfer gap between the stages (workflow
        edges with communication costs); 0 for the classic barrier.
        """
        self._check_sealed()
        if not first or not second:
            return None
        if delay < 0:
            raise ModelError(f"barrier delay must be non-negative, got {delay}")
        spec = BarrierSpec(list(first), list(second), name, int(delay))
        self.barriers.append(spec)
        return spec

    def add_end_before_start(
        self, a: IntervalVar, b: IntervalVar, delay: int = 0
    ) -> PrecedenceSpec:
        """Generic pairwise precedence ``a.end + delay <= b.start``."""
        self._check_sealed()
        spec = PrecedenceSpec(a, b, int(delay))
        self.precedences.append(spec)
        return spec

    def add_alternative(
        self,
        master: IntervalVar,
        options: Sequence[IntervalVar],
        name: str = "",
    ) -> AlternativeSpec:
        """Constraint (1): the master runs as exactly one of the options."""
        self._check_sealed()
        spec = AlternativeSpec(master, list(options), name or f"alt({master.name})")
        self.alternatives.append(spec)
        return spec

    def add_deadline_indicator(
        self,
        tasks: Sequence[IntervalVar],
        deadline: int,
        name: str = "",
    ) -> BoolVar:
        """Constraint (4): a boolean that is 1 iff the job finishes late."""
        self._check_sealed()
        if not tasks:
            raise ModelError("deadline indicator needs at least one task")
        indicator = BoolVar(name=self._unique(name or "late", "late"))
        spec = IndicatorSpec(list(tasks), int(deadline), indicator, indicator.name)
        self.indicators.append(spec)
        return indicator

    def add_group(
        self,
        name: str,
        first_stage: Sequence[IntervalVar],
        second_stage: Sequence[IntervalVar] = (),
        release: int = 0,
        deadline: Optional[int] = None,
        indicator: Optional[BoolVar] = None,
    ) -> Group:
        """Declare a MapReduce-shaped job grouping (map stage, reduce stage)."""
        stages: List[List[IntervalVar]] = [list(first_stage)]
        preds: List[List[int]] = [[]]
        if second_stage:
            stages.append(list(second_stage))
            preds.append([0])
        return self.add_staged_group(
            name, stages, preds, release=release, deadline=deadline,
            indicator=indicator,
        )

    def add_staged_group(
        self,
        name: str,
        stages: Sequence[Sequence[IntervalVar]],
        stage_preds: Sequence[Sequence[int]],
        release: int = 0,
        deadline: Optional[int] = None,
        indicator: Optional[BoolVar] = None,
        stage_pred_delays: Optional[Sequence[Sequence[int]]] = None,
    ) -> Group:
        """Declare a workflow grouping: stages in topological order with
        per-stage predecessor indices (used by warm starts and LNS)."""
        self._check_sealed()
        group = Group(
            name=name,
            stages=[list(s) for s in stages],
            stage_preds=[list(p) for p in stage_preds],
            release=int(release),
            deadline=None if deadline is None else int(deadline),
            indicator=indicator,
            stage_pred_delays=(
                None
                if stage_pred_delays is None
                else [list(d) for d in stage_pred_delays]
            ),
        )
        self.groups.append(group)
        return group

    def minimize_sum(self, bools: Sequence[BoolVar]) -> None:
        """Objective: minimise the number of true indicators (late jobs)."""
        self._check_sealed()
        self.objective_bools = list(bools)

    # -------------------------------------------------------------- compile
    @property
    def all_intervals(self) -> List[IntervalVar]:
        return self.intervals + self.optionals

    def engine(self) -> Engine:
        """Compile (once) and return the propagation engine."""
        if self._engine is not None:
            return self._engine
        self.original_windows = {
            iv: (iv.start._min, iv.start._max) for iv in self.all_intervals
        }
        eng = Engine()
        for b in self.barriers:
            eng.register(BarrierPropagator(b.first, b.second, b.name, b.delay))
        for p in self.precedences:
            eng.register(EndBeforeStartPropagator(p.a, p.b, p.delay))
        for a in self.alternatives:
            eng.register(AlternativePropagator(a.master, a.options, a.name))
        for ind in self.indicators:
            eng.register(
                DeadlineIndicatorPropagator(
                    ind.tasks, ind.deadline, ind.indicator, ind.name
                )
            )
        if self.objective_bools is not None:
            obj = SumBoolBoundPropagator(self.objective_bools)
            eng.register(obj)
            eng.objective_propagator = obj
        for c in self.cumulatives:
            eng.register(
                CumulativePropagator(c.intervals, c.demands, c.capacity, c.name, c.base)
            )
        eng.seal()
        self._engine = eng
        return eng
