"""General multi-stage workflows with user-specified precedence (DAGs).

The paper closes (Section VII) with "generalization of the resource manager
by incorporating capabilities for handling more complex workflows with
user-specified precedence relationships warrants further investigation".
This module provides that generalisation:

* a :class:`WorkflowJob` is a DAG of *stages*; each stage is a set of
  parallel tasks, and an edge ``A -> B`` means every task of B starts after
  every task of A completes (the MapReduce barrier, per edge);
* a classic MapReduce job is exactly the two-stage chain
  (:func:`from_mapreduce`);
* stages consume either map-slot or reduce-slot capacity via their tasks'
  :class:`~repro.workload.entities.TaskKind` -- matching the paper's
  two-pool resource model;
* :func:`generate_workflow_workload` draws random layered DAGs with the
  Table 3 distribution style, for open-system experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams
from repro.workload.entities import Job, Task, TaskKind, _phase_makespan


@dataclass
class Stage:
    """A set of parallel tasks forming one node of the workflow DAG."""

    name: str
    tasks: List[Task] = field(default_factory=list)

    @property
    def duration_lower_bound(self) -> int:
        return max((t.duration for t in self.tasks), default=0)

    @property
    def total_work(self) -> int:
        return sum(t.duration for t in self.tasks)


@dataclass
class WorkflowJob:
    """A job whose execution is a DAG of stages with an end-to-end SLA.

    Duck-compatible with :class:`~repro.workload.entities.Job` everywhere
    the resource manager, executor and metrics need it (``tasks``,
    ``is_completed``, ``earliest_start``, ``deadline``...).
    """

    id: int
    arrival_time: int
    earliest_start: int
    deadline: int
    stages: List[Stage] = field(default_factory=list)
    #: Stage-name precedence edges (pred, succ).
    edges: List[Tuple[str, str]] = field(default_factory=list)
    #: Optional per-edge data-transfer delays in seconds (communication
    #: cost of shipping intermediate data; paper Section VII mentions
    #: communication links as future work).  Missing edges default to 0.
    edge_delays: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------ structure
    def _topological_order(self) -> List[str]:
        """Stage names by Kahn generations; a cycle is a ``ValueError``.

        Roots in stage order, then generation by generation, each stage
        where it reached in-degree zero while its parents' children were
        visited in first-occurrence edge order (duplicate edges collapse).
        Model variable order follows this order, so it is pinned.
        """
        children: Dict[str, Dict[str, None]] = {s.name: {} for s in self.stages}
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
                f"workflow {self.id}: precedence cycle among stages {stuck}"
            )
        return order

    def validate(self) -> None:
        """Structural hygiene: unique stages, known edges, acyclic, non-empty stages, delay sanity."""
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"workflow {self.id}: duplicate stage names")
        if not self.stages:
            raise ValueError(f"workflow {self.id}: no stages")
        known = set(names)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(
                    f"workflow {self.id}: edge ({a}, {b}) references an "
                    f"unknown stage"
                )
            if a == b:
                raise ValueError(f"workflow {self.id}: self-edge on {a}")
        self._topological_order()
        for stage in self.stages:
            if not stage.tasks:
                raise ValueError(
                    f"workflow {self.id}: stage {stage.name} has no tasks"
                )
        edge_set = set(map(tuple, self.edges))
        for edge, delay in self.edge_delays.items():
            if tuple(edge) not in edge_set:
                raise ValueError(
                    f"workflow {self.id}: delay on unknown edge {edge}"
                )
            if delay < 0:
                raise ValueError(
                    f"workflow {self.id}: negative delay on edge {edge}"
                )

    def edge_delay(self, pred: str, succ: str) -> int:
        """Transfer delay on edge (pred, succ); 0 when unspecified."""
        return self.edge_delays.get((pred, succ), 0)

    def topological_stages(self) -> Tuple[List[Stage], List[List[int]]]:
        """(stages in topological order, predecessor indices per stage)."""
        stages, preds, _ = self.topological_structure()
        return stages, preds

    def topological_structure(
        self,
    ) -> Tuple[List[Stage], List[List[int]], List[List[int]]]:
        """(stages in topological order, predecessor indices, transfer
        delays aligned with the predecessor lists)."""
        by_name = {s.name: s for s in self.stages}
        order = self._topological_order()
        index = {name: i for i, name in enumerate(order)}
        preds: List[List[int]] = [[] for _ in order]
        delays: List[List[int]] = [[] for _ in order]
        for a, b in self.edges:
            entry = (index[a], self.edge_delay(a, b))
            preds[index[b]].append(entry[0])
            delays[index[b]].append(entry[1])
        for i in range(len(order)):
            paired = sorted(zip(preds[i], delays[i]))
            preds[i] = [p for p, _ in paired]
            delays[i] = [d for _, d in paired]
        return [by_name[name] for name in order], preds, delays

    def terminal_stage_names(self) -> List[str]:
        """Stages with no successors -- they define job completion."""
        has_successor = {a for a, _ in self.edges}
        return [s.name for s in self.stages if s.name not in has_successor]

    # ------------------------------------------------- Job-compatible API
    @property
    def tasks(self) -> List[Task]:
        return [t for s in self.stages for t in s.tasks]

    @property
    def total_work(self) -> int:
        return sum(t.duration for t in self.tasks)

    @property
    def is_completed(self) -> bool:
        return all(t.is_completed for t in self.tasks)

    @property
    def pending_tasks(self) -> List[Task]:
        return [t for t in self.tasks if not t.is_completed]

    @property
    def last_stage_tasks(self) -> List[Task]:
        terminal = set(self.terminal_stage_names())
        return [t for s in self.stages if s.name in terminal for t in s.tasks]

    def laxity(self) -> int:
        """Slack: deadline - earliest start - total work (paper VI.B)."""
        return self.deadline - self.earliest_start - self.total_work

    def reset_runtime_state(self) -> None:
        """Clear every task's execution flags (new replication)."""
        for t in self.tasks:
            t.reset_runtime_state()

    def with_earliest_start(self, earliest_start: int) -> "WorkflowJob":
        """A shallow view with a clamped effective EST (Table 2 lines 1-4)."""
        if earliest_start == self.earliest_start:
            return self
        view = WorkflowJob.__new__(WorkflowJob)
        view.id = self.id
        view.arrival_time = self.arrival_time
        view.earliest_start = earliest_start
        view.deadline = self.deadline
        view.stages = self.stages
        view.edges = self.edges
        view.edge_delays = self.edge_delays
        return view

    # -------------------------------------------------------------- timing
    def critical_path_time(
        self, total_map_slots: int, total_reduce_slots: int
    ) -> int:
        """TE for workflows: longest path of per-stage LPT makespans,
        including per-edge transfer delays."""
        stages, preds, delays = self.topological_structure()
        finish = [0] * len(stages)
        for i, stage in enumerate(stages):
            map_durs = [t.duration for t in stage.tasks if t.is_map]
            red_durs = [t.duration for t in stage.tasks if t.is_reduce]
            span = _phase_makespan(map_durs, total_map_slots) if map_durs else 0
            if red_durs:
                span += _phase_makespan(red_durs, total_reduce_slots)
            start = max(
                (finish[p] + d for p, d in zip(preds[i], delays[i])),
                default=0,
            )
            finish[i] = start + span
        return max(finish)


def from_mapreduce(job: Job) -> WorkflowJob:
    """View a classic MapReduce job as a two-stage workflow."""
    stages = [Stage("map", list(job.map_tasks))]
    edges: List[Tuple[str, str]] = []
    if job.reduce_tasks:
        stages.append(Stage("reduce", list(job.reduce_tasks)))
        edges.append(("map", "reduce"))
    return WorkflowJob(
        id=job.id,
        arrival_time=job.arrival_time,
        earliest_start=job.earliest_start,
        deadline=job.deadline,
        stages=stages,
        edges=edges,
    )


def validate_workflows(jobs: Sequence[WorkflowJob]) -> List[str]:
    """Workload-level hygiene for workflow streams."""
    problems: List[str] = []
    seen_jobs = set()
    seen_tasks = set()
    for job in jobs:
        if job.id in seen_jobs:
            problems.append(f"duplicate workflow id {job.id}")
        seen_jobs.add(job.id)
        try:
            job.validate()
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if job.earliest_start < job.arrival_time:
            problems.append(f"workflow {job.id}: EST before arrival")
        if job.deadline <= job.earliest_start:
            problems.append(f"workflow {job.id}: deadline not after EST")
        for t in job.tasks:
            if t.id in seen_tasks:
                problems.append(f"duplicate task id {t.id}")
            seen_tasks.add(t.id)
            if t.duration < 1:
                problems.append(f"task {t.id}: non-positive duration")
            if t.job_id != job.id:
                problems.append(f"task {t.id}: wrong parent {t.job_id}")
    return problems


@dataclass
class WorkflowWorkloadParams:
    """Random layered-DAG workload in the Table 3 style."""

    num_jobs: int = 20
    #: DU bounds on the number of stages per workflow.
    stages_range: Tuple[int, int] = (2, 5)
    #: DU bounds on tasks per stage.
    tasks_per_stage_range: Tuple[int, int] = (1, 8)
    #: DU upper bound of task execution times (seconds).
    e_max: int = 20
    #: Probability that a stage consumes reduce slots instead of map slots.
    reduce_stage_probability: float = 0.3
    #: Probability of an extra (skip-level) edge beyond the spine chain.
    extra_edge_probability: float = 0.3
    #: DU bounds on per-edge data-transfer delays (seconds); (0, 0) = none.
    transfer_delay_range: Tuple[int, int] = (0, 0)
    #: d_UL of the deadline multiplier U[1, d_UL] over the critical path.
    deadline_multiplier_max: float = 3.0
    arrival_rate: float = 0.01
    total_map_slots: int = 20
    total_reduce_slots: int = 20
    first_job_id: int = 0

    def validate(self) -> None:
        """Reject out-of-range parameters before generation."""
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        lo, hi = self.stages_range
        if lo < 1 or hi < lo:
            raise ValueError(f"stages_range [{lo}, {hi}] invalid")
        lo, hi = self.tasks_per_stage_range
        if lo < 1 or hi < lo:
            raise ValueError(f"tasks_per_stage_range [{lo}, {hi}] invalid")
        if self.e_max < 1:
            raise ValueError("e_max must be >= 1")
        if not 0 <= self.reduce_stage_probability <= 1:
            raise ValueError("reduce_stage_probability outside [0, 1]")
        if not 0 <= self.extra_edge_probability <= 1:
            raise ValueError("extra_edge_probability outside [0, 1]")
        lo, hi = self.transfer_delay_range
        if lo < 0 or hi < lo:
            raise ValueError(f"transfer_delay_range [{lo}, {hi}] invalid")
        if self.deadline_multiplier_max < 1:
            raise ValueError("deadline multiplier upper bound must be >= 1")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")


def generate_workflow_workload(
    params: WorkflowWorkloadParams,
    streams: Optional[RandomStreams] = None,
    seed: int = 0,
) -> List[WorkflowJob]:
    """Draw an open stream of random layered-DAG workflows.

    Each stage ``i`` (i > 0) depends on one *random* earlier stage (a
    random-tree spine guaranteeing connectivity while creating parallel
    branches); extra edges between non-adjacent stages are then added with
    ``extra_edge_probability``, serialising branches into diamonds and
    fan-ins.  (A chain spine would make skip-level edges transitively
    redundant -- density would have no effect at all.)
    """
    params.validate()
    streams = streams or RandomStreams(seed)
    arrivals = streams.distributions("workflow.arrivals")
    shape = streams.distributions("workflow.shape")
    durations = streams.distributions("workflow.durations")
    deadlines = streams.distributions("workflow.deadlines")

    jobs: List[WorkflowJob] = []
    now = 0.0
    for i in range(params.num_jobs):
        job_id = params.first_job_id + i
        now += arrivals.exponential_rate(params.arrival_rate)
        arrival = int(round(now))

        n_stages = shape.du(*params.stages_range)
        stages: List[Stage] = []
        for s in range(n_stages):
            kind = (
                TaskKind.REDUCE
                if shape.bernoulli(params.reduce_stage_probability)
                else TaskKind.MAP
            )
            k = shape.du(*params.tasks_per_stage_range)
            tasks = [
                Task(
                    id=f"w{job_id}_s{s}_t{t}",
                    job_id=job_id,
                    kind=kind,
                    duration=durations.du(1, params.e_max),
                )
                for t in range(k)
            ]
            stages.append(Stage(f"s{s}", tasks))

        edges = []
        parents = {}
        for s in range(1, n_stages):
            parent = shape.du(0, s - 1)
            parents[s] = parent
            edges.append((f"s{parent}", f"s{s}"))
        for a in range(n_stages):
            for b in range(a + 1, n_stages):
                if parents.get(b) == a:
                    continue  # already the spine edge
                if shape.bernoulli(params.extra_edge_probability):
                    edges.append((f"s{a}", f"s{b}"))

        edge_delays = {}
        lo, hi = params.transfer_delay_range
        if hi > 0:
            edge_delays = {edge: durations.du(lo, hi) for edge in edges}

        job = WorkflowJob(
            id=job_id,
            arrival_time=arrival,
            earliest_start=arrival,
            deadline=arrival + 1,  # placeholder until TE is known
            stages=stages,
            edges=edges,
            edge_delays=edge_delays,
        )
        te = job.critical_path_time(
            params.total_map_slots, params.total_reduce_slots
        )
        multiplier = deadlines.uniform(1.0, params.deadline_multiplier_max)
        job.deadline = arrival + max(1, int(math.ceil(te * multiplier)))
        jobs.append(job)
    return jobs
