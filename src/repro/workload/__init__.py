"""Workload substrate: MapReduce jobs, SLAs, resources and generators.

Every job is one shape, a :class:`StagedJob`: an SLA over a DAG of task
stages.  A MapReduce :class:`Job` is the two-stage chain maps -> reduces;
a :class:`WorkflowJob` is any DAG, with transfer delays on its edges (the
Section VII generalisation).  TE, validation, the CP model, the schedule
validator and the slot baselines all read one stage structure,
:meth:`StagedJob.topological_structure`.

Implements the two workload models of the paper's evaluation, plus one:

* :mod:`repro.workload.synthetic` -- the parameterised Table 3 model used by
  the factor-at-a-time experiments (Figures 4-9),
* :mod:`repro.workload.facebook` -- the synthetic Facebook workload of
  Table 4 (job-type mix + LogNormal task times) used for the comparison with
  MinEDF-WC (Figures 2-3),
* :mod:`repro.workload.workflows` -- random layered-DAG workflows.

Entities carry both the SLA attributes of Section III.A (earliest start
time, per-task execution times, deadline) and the runtime bookkeeping fields
of Section V.A (``is_completed``, ``is_prev_scheduled``).
"""

from repro.workload.entities import (
    Job,
    Resource,
    Stage,
    StagedJob,
    Task,
    TaskKind,
    cluster_capacities,
    make_uniform_cluster,
    minimum_execution_time,
)
from repro.workload.synthetic import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
)
from repro.workload.facebook import (
    FACEBOOK_JOB_TYPES,
    MAP_TIME_LOGNORMAL,
    REDUCE_TIME_LOGNORMAL,
    FacebookWorkloadParams,
    generate_facebook_workload,
)
from repro.workload.traces import jobs_to_json, save_trace
from repro.workload.validate import validate_jobs
from repro.workload.workflows import (
    WorkflowJob,
    WorkflowWorkloadParams,
    from_mapreduce,
    generate_workflow_workload,
)

__all__ = [
    "Task",
    "TaskKind",
    "Job",
    "StagedJob",
    "Stage",
    "Resource",
    "cluster_capacities",
    "make_uniform_cluster",
    "minimum_execution_time",
    "SyntheticWorkloadParams",
    "generate_synthetic_workload",
    "FacebookWorkloadParams",
    "generate_facebook_workload",
    "FACEBOOK_JOB_TYPES",
    "MAP_TIME_LOGNORMAL",
    "REDUCE_TIME_LOGNORMAL",
    "jobs_to_json",
    "save_trace",
    "validate_jobs",
    "WorkflowJob",
    "WorkflowWorkloadParams",
    "from_mapreduce",
    "generate_workflow_workload",
]
