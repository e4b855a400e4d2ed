"""General multi-stage workflows with user-specified precedence (DAGs).

The paper closes (Section VII) with "generalization of the resource manager
by incorporating capabilities for handling more complex workflows with
user-specified precedence relationships warrants further investigation".
This module provides that generalisation:

* a :class:`WorkflowJob` is a DAG of named stages with optional per-edge
  transfer delays -- the same :class:`~repro.workload.entities.StagedJob`
  shape as a MapReduce :class:`~repro.workload.entities.Job`, which is the
  two-stage chain maps -> reduces (:func:`from_mapreduce` builds that view
  explicitly);
* stages consume either map-slot or reduce-slot capacity via their tasks'
  :class:`~repro.workload.entities.TaskKind` -- matching the paper's
  two-pool resource model;
* :func:`generate_workflow_workload` draws random layered DAGs with the
  Table 3 distribution style, for open-system experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams
from repro.workload.entities import (
    Job,
    Stage,
    StagedJob,
    Task,
    TaskKind,
    minimum_execution_time,
)


@dataclass
class WorkflowJob(StagedJob):
    """A job whose execution is a DAG of stages with an end-to-end SLA.

    The stage structure is checked on construction (a malformed DAG is a
    ``ValueError``) and fixed from then on: stages and edges are stored as
    tuples and delays as a read-only mapping, and none takes a new value.
    """

    id: int
    arrival_time: int
    earliest_start: int
    deadline: int
    stages: Sequence[Stage] = ()
    #: Stage-name precedence edges (pred, succ).
    edges: Sequence[Tuple[str, str]] = ()
    #: Optional per-edge data-transfer delays in seconds (communication
    #: cost of shipping intermediate data; paper Section VII mentions
    #: communication links as future work).  Missing edges default to 0.
    edge_delays: Mapping[Tuple[str, str], int] = field(default_factory=dict)

    def __setattr__(self, name: str, value: object) -> None:
        if name in ("stages", "edges", "edge_delays") and self._graph is not None:
            raise AttributeError(
                f"job {self.id}: {name} is fixed once its stage graph is built"
            )
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        self.edges = tuple(tuple(e) for e in self.edges)
        self.edge_delays = MappingProxyType(dict(self.edge_delays))
        problems = self.structure_problems()
        if problems:
            raise ValueError(problems[0])

    @property
    def tasks(self) -> List[Task]:
        return [t for s in self.stages for t in s.tasks]


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
        te = minimum_execution_time(
            job, params.total_map_slots, params.total_reduce_slots
        )
        multiplier = deadlines.uniform(1.0, params.deadline_multiplier_max)
        job.deadline = arrival + max(1, int(math.ceil(te * multiplier)))
        jobs.append(job)
    return jobs
