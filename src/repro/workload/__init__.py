"""Workload substrate: MapReduce jobs, SLAs, resources and generators.

Implements the two workload models of the paper's evaluation:

* :mod:`repro.workload.synthetic` -- the parameterised Table 3 model used by
  the factor-at-a-time experiments (Figures 4-9),
* :mod:`repro.workload.facebook` -- the synthetic Facebook workload of
  Table 4 (job-type mix + LogNormal task times) used for the comparison with
  MinEDF-WC (Figures 2-3).

Entities carry both the SLA attributes of Section III.A (earliest start
time, per-task execution times, deadline) and the runtime bookkeeping fields
of Section V.A (``is_completed``, ``is_prev_scheduled``).
"""

from repro.workload.entities import (
    Job,
    Resource,
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
    Stage,
    WorkflowJob,
    WorkflowWorkloadParams,
    from_mapreduce,
    generate_workflow_workload,
    validate_workflows,
)

__all__ = [
    "Task",
    "TaskKind",
    "Job",
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
    "Stage",
    "WorkflowJob",
    "WorkflowWorkloadParams",
    "from_mapreduce",
    "generate_workflow_workload",
    "validate_workflows",
]
