"""Job, Task and Resource entities (paper Sections III.A and V.A).

A job is an SLA over a DAG of task stages (:class:`StagedJob`); a MapReduce
:class:`Job` is the two-stage chain maps -> reduces, and TE
(:func:`minimum_execution_time`) is the critical path of that DAG.

All times are integer simulated seconds: the CP formulation reasons over
integer start times (CP Optimizer does the same without discretising time;
our solver uses integral bounds), and second-level granularity matches the
paper's workload parameters.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class TaskKind(enum.Enum):
    """Map or reduce task (selects the slot pool consumed)."""
    MAP = "map"
    REDUCE = "reduce"


@dataclass
class Task:
    """One map or reduce task.

    ``duration`` is the execution time :math:`e_t` (includes input read and
    shuffle, per Section III.A); ``demand`` is the resource capacity
    requirement :math:`q_t` (1 in the paper).  The two boolean flags are the
    runtime attributes of the Java implementation (Section V.A).
    """

    id: str
    job_id: int
    kind: TaskKind
    duration: int
    demand: int = 1
    is_completed: bool = False
    is_prev_scheduled: bool = False
    #: Simulation time the task finished (None while pending/running);
    #: lets schedulers compute stage readiness (e.g. transfer delays).
    completed_at: Optional[int] = None
    #: Number of execution attempts that *failed* (fault injection); the
    #: recovery policy compares this against its retry budget.
    attempts: int = 0
    #: The planned duration before runtime perturbation first revealed a
    #: different actual execution time (None while unperturbed).  Stragglers
    #: are drawn against this, so retries never compound factors.
    nominal_duration: Optional[int] = None

    @property
    def length(self) -> int:
        """The duration, named as on an interval (list scheduling walks both)."""
        return self.duration

    @property
    def is_map(self) -> bool:
        return self.kind is TaskKind.MAP

    @property
    def is_reduce(self) -> bool:
        return self.kind is TaskKind.REDUCE


@dataclass(slots=True)
class Stage:
    """A set of parallel tasks forming one node of a job's DAG."""

    name: str
    tasks: List[Task] = field(default_factory=list)


class StageGraph(NamedTuple):
    """A job's stages in topological order and the edges between them."""

    stages: Tuple[Stage, ...]
    #: Predecessor stage indices, per stage.
    preds: Tuple[Tuple[int, ...], ...]
    #: Transfer delay of each predecessor edge, aligned with ``preds``.
    delays: Tuple[Tuple[int, ...], ...]
    #: Stages no stage depends on: their tasks complete the job.
    terminal: Tuple[int, ...]
    #: (pred stage, succ stage, transfer delay) per edge, in stage order.
    barriers: Tuple[Tuple[Stage, Stage, int], ...]


class StagedJob:
    """An SLA over a DAG of task stages: what every job shape shares.

    A stage's tasks run in parallel; an edge ``A -> B`` means every task
    of B starts after every task of A completes, plus the edge's transfer
    delay (the MapReduce barrier, per edge).  A subclass holds ``id``,
    ``arrival_time``, ``earliest_start`` (s_j), ``deadline`` (d_j),
    ``tasks``, ``stages``, ``edges`` and ``edge_delays``.
    """

    _graph: Optional[StageGraph] = None

    def topological_structure(self) -> StageGraph:
        """The stage DAG: every consumer of a job's precedence reads this.

        Built on first use and shared by every :meth:`with_earliest_start`
        view; a job's stages and edges do not change once it is built.
        """
        graph = self._graph
        if graph is None:
            graph = self._graph = self._build_graph()
        return graph

    def _build_graph(self) -> StageGraph:
        """Stages by Kahn generations; a cycle is a ``ValueError``.

        Roots in stage order, then generation by generation, each stage
        where it reached in-degree zero while its parents' children were
        visited in first-occurrence edge order (duplicate edges collapse).
        Model variable order follows this order, so it is pinned.
        """
        by_name = {s.name: s for s in self.stages}
        children: Dict[str, Dict[str, None]] = {name: {} for name in by_name}
        for a, b in self.edges:
            children[a][b] = None
        indegree = dict.fromkeys(children, 0)
        for succs in children.values():
            for b in succs:
                indegree[b] += 1
        order: List[str] = []
        generation = [name for name, d in indegree.items() if d == 0]
        while generation:
            order += generation
            released = []
            for name in generation:
                for child in children[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        released.append(child)
            generation = released
        if len(order) < len(children):
            stuck = [name for name, d in indegree.items() if d > 0]
            raise ValueError(
                f"job {self.id}: precedence cycle among stages {stuck}"
            )
        index = {name: i for i, name in enumerate(order)}
        into: List[List[Tuple[int, int]]] = [[] for _ in order]
        for a, b in self.edges:
            into[index[b]].append((index[a], self.edge_delays.get((a, b), 0)))
        has_successor = {index[a] for a, _ in self.edges}
        stages = tuple(by_name[name] for name in order)
        preds = tuple(tuple(p for p, _ in sorted(edges)) for edges in into)
        delays = tuple(tuple(d for _, d in sorted(edges)) for edges in into)
        return StageGraph(
            stages,
            preds,
            delays,
            tuple(i for i in range(len(order)) if i not in has_successor),
            tuple(
                (stages[p], stage, d)
                for stage, ps, ds in zip(stages, preds, delays)
                for p, d in zip(ps, ds)
            ),
        )

    def structure_problems(self) -> List[str]:
        """Structural hygiene: unique stages, known edges, acyclic,
        non-empty stages, delays on known edges and non-negative."""
        stages, edges = self.stages, self.edges
        names = {s.name for s in stages}
        if len(names) != len(stages):
            return [f"job {self.id}: duplicate stage names"]
        if not names:
            return [f"job {self.id}: no stages"]
        for a, b in edges:
            if a not in names or b not in names:
                return [f"job {self.id}: edge ({a}, {b}) references an unknown stage"]
            if a == b:
                return [f"job {self.id}: self-edge on {a}"]
        problems = []
        try:
            self.topological_structure()  # built and cached here
        except ValueError as exc:
            problems.append(str(exc))
        problems += [
            f"job {self.id}: stage {s.name} has no tasks"
            for s in stages
            if not s.tasks
        ]
        edge_set = set(map(tuple, edges))
        for edge, delay in self.edge_delays.items():
            if tuple(edge) not in edge_set:
                problems.append(f"job {self.id}: delay on unknown edge {edge}")
            elif delay < 0:
                problems.append(f"job {self.id}: negative delay on edge {edge}")
        return problems

    @property
    def total_work(self) -> int:
        return sum(t.duration for t in self.tasks)

    def laxity(self) -> int:
        """Slack: ``d_j - s_j - sum(e_t)`` (paper, Section VI.B)."""
        return self.deadline - self.earliest_start - self.total_work

    @property
    def is_completed(self) -> bool:
        return all(t.is_completed for t in self.tasks)

    @property
    def pending_tasks(self) -> List[Task]:
        return [t for t in self.tasks if not t.is_completed]

    def with_earliest_start(self, earliest_start: int) -> "StagedJob":
        """A shallow view with a clamped effective EST (Table 2 lines 1-4).

        The tasks and the stage graph are shared -- only the SLA field
        differs -- so the resource manager can feed the clamped value to
        the CP model while the metrics keep using the original
        ``earliest_start``.
        """
        if earliest_start == self.earliest_start:
            return self
        self.topological_structure()
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        view.earliest_start = earliest_start
        return view


@dataclass
class Job(StagedJob):
    """A MapReduce job with an SLA: a ``map`` stage, then -- when reduces
    exist -- a ``reduce`` stage behind one zero-delay edge (the barrier)."""

    id: int
    arrival_time: int  # v_j
    earliest_start: int  # s_j  (>= arrival time)
    deadline: int  # d_j
    map_tasks: List[Task] = field(default_factory=list)
    reduce_tasks: List[Task] = field(default_factory=list)

    #: Intermediate data ships with the reduce tasks' read: no link delay.
    edge_delays: ClassVar[Mapping[Tuple[str, str], int]] = MappingProxyType({})

    @property
    def tasks(self) -> List[Task]:
        return self.map_tasks + self.reduce_tasks

    @property
    def stages(self) -> List[Stage]:
        stages = [Stage("map", self.map_tasks)]
        if self.reduce_tasks:
            stages.append(Stage("reduce", self.reduce_tasks))
        return stages

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return [("map", "reduce")] if self.reduce_tasks else []

    def _build_graph(self) -> StageGraph:
        """The graph the generic sort finds for the chain, without the sort.

        Every service quote builds one for its new job, and the sort costs
        about 4 µs of a 0.2 ms quote (CPython 3.11); the job-shape property
        test holds this to the generic builder.
        """
        stages = tuple(self.stages)
        if len(stages) == 1:
            return StageGraph(stages, ((),), ((),), (0,), ())
        return StageGraph(stages, ((), (0,)), ((), (0,)), (1,), ((*stages, 0),))

    def structure_problems(self) -> List[str]:
        """The DAG's hygiene, and each stage holding tasks of its kind."""
        problems = super().structure_problems()
        for kind, tasks in (
            (TaskKind.MAP, self.map_tasks),
            (TaskKind.REDUCE, self.reduce_tasks),
        ):
            problems += [
                f"task {t.id}: in {kind.value} stage but kind {t.kind}"
                for t in tasks
                if t.kind is not kind
            ]
        return problems

    def copy(self) -> "Job":
        """Deep copy with fresh runtime state (for re-running replications)."""
        return Job(
            id=self.id,
            arrival_time=self.arrival_time,
            earliest_start=self.earliest_start,
            deadline=self.deadline,
            map_tasks=[_fresh_copy(t) for t in self.map_tasks],
            reduce_tasks=[_fresh_copy(t) for t in self.reduce_tasks],
        )


def _fresh_copy(task: Task) -> Task:
    """A pristine copy of ``task`` at its nominal (pre-perturbation) duration."""
    duration = (
        task.nominal_duration
        if task.nominal_duration is not None
        else task.duration
    )
    return Task(task.id, task.job_id, task.kind, duration, task.demand)


@dataclass(frozen=True)
class Resource:
    """A worker with independent map/reduce slot counts (Section III.A)."""

    id: int
    map_capacity: int  # c_r^mp
    reduce_capacity: int  # c_r^rd

    def __post_init__(self) -> None:
        if self.map_capacity < 0 or self.reduce_capacity < 0:
            raise ValueError(f"resource {self.id}: negative capacity")


def make_uniform_cluster(
    num_resources: int, map_capacity: int = 2, reduce_capacity: int = 2
) -> List[Resource]:
    """The paper's system model: ``m`` identical resources."""
    if num_resources <= 0:
        raise ValueError(f"need at least one resource, got {num_resources}")
    return [
        Resource(i, map_capacity, reduce_capacity) for i in range(num_resources)
    ]


def cluster_capacities(resources: Sequence[Resource]) -> Tuple[int, int]:
    """(total map slots, total reduce slots)."""
    return (
        sum(r.map_capacity for r in resources),
        sum(r.reduce_capacity for r in resources),
    )


def _phase_makespan(durations: Iterable[int], slots: int) -> int:
    """LPT list-scheduling makespan of independent tasks on ``slots`` machines."""
    durations = sorted(durations, reverse=True)
    if not durations:
        return 0
    if slots <= 0:
        raise ValueError("phase with tasks needs at least one slot")
    if slots >= len(durations):
        return durations[0]
    heap = [0] * slots
    for d in durations:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + d)
    return max(heap)


def minimum_execution_time(
    job: StagedJob, total_map_slots: int, total_reduce_slots: int
) -> int:
    """``TE``: the job's minimum completion time on an empty system (Table 3).

    The critical path of the stage DAG, with transfer delays: each stage
    runs its maps (LPT on all map slots), then its reduces (LPT on all
    reduce slots), once every predecessor stage has finished.
    """
    stages, preds, delays, *_ = job.topological_structure()
    finish: List[int] = []
    for stage, ps, ds in zip(stages, preds, delays):
        tasks = stage.tasks
        start = max((finish[p] + d for p, d in zip(ps, ds)), default=0)
        finish.append(
            start
            + _phase_makespan([t.duration for t in tasks if t.is_map], total_map_slots)
            + _phase_makespan(
                [t.duration for t in tasks if t.is_reduce], total_reduce_slots
            )
        )
    return max(finish)
