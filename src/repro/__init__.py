"""MRCP-RM reproduction: CP-based resource management for MapReduce with SLAs.

A from-scratch Python implementation of

    N. Lim, S. Majumdar, P. Ashwood-Smith,
    "A Constraint Programming-Based Resource Management Technique for
    Processing MapReduce Jobs with SLAs on Clouds", ICPP 2014.

Package map
-----------
* :mod:`repro.cp` -- constraint-programming scheduling solver (the CP
  Optimizer substitute): interval variables, cumulative / alternative /
  barrier constraints, branch-and-bound + LNS search.
* :mod:`repro.sim` -- event-calendar simulation kernel, seeded random
  streams, confidence intervals over a fixed number of replications.
* :mod:`repro.workload` -- MapReduce job/SLA entities; Table 3 synthetic and
  Table 4 Facebook workload generators.
* :mod:`repro.core` -- MRCP-RM itself: the Table 1 formulation, the Table 2
  incremental algorithm, the V.D matchmaking decomposition, the V.E
  deferral optimisation, and the plan-driven executor.
* :mod:`repro.baselines` -- MinEDF-WC (Verma et al.), EDF, FCFS on a
  slot-based cluster.
* :mod:`repro.metrics` -- the O / N / T / P metrics of Section VI.
* :mod:`repro.experiments` -- per-figure experiment configurations and the
  replication runner.

Quickstart
----------
>>> from repro import quick_demo
>>> metrics = quick_demo(seed=1)          # a small open-system run
>>> metrics.jobs_completed == metrics.jobs_arrived
True
"""

from typing import Optional

from repro.core import MrcpRm, MrcpRmConfig
from repro.faults import FaultModel, OutageWindow
from repro.metrics import MetricsCollector, RunMetrics
from repro.obs import ObsConfig
from repro.sim import Simulator
from repro.workload import (
    FacebookWorkloadParams,
    SyntheticWorkloadParams,
    generate_facebook_workload,
    generate_synthetic_workload,
    make_uniform_cluster,
)

try:  # installed: single source of truth is the package metadata
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("repro")
except Exception:  # pragma: no cover - running from a source tree
    __version__ = "1.0.0"

__all__ = [
    "MrcpRm",
    "MrcpRmConfig",
    "FaultModel",
    "OutageWindow",
    "MetricsCollector",
    "RunMetrics",
    "Simulator",
    "SyntheticWorkloadParams",
    "FacebookWorkloadParams",
    "generate_synthetic_workload",
    "generate_facebook_workload",
    "make_uniform_cluster",
    "quick_demo",
]


def quick_demo(
    seed: int = 0,
    num_jobs: int = 10,
    faults: Optional[FaultModel] = None,
    obs: Optional[ObsConfig] = None,
) -> RunMetrics:
    """Run a small MRCP-RM open system end to end; returns its metrics.

    Pass a :class:`FaultModel` to subject the run to task failures,
    stragglers, and resource outages; the default (``None``) is the
    fault-free happy path.  The fault draws are seeded from ``seed`` (the
    model's own ``seed`` is replaced), like the workload's.  Pass a
    :class:`repro.obs.ObsConfig` to trace the run (``trace_out`` names the
    file the trace is written to) or to inject a wall clock.
    """
    from repro.core import MrcpRmConfig
    from repro.experiments.runner import RunConfig, SystemConfig, build_live_run

    config = RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs,
            map_tasks_range=(1, 8),
            reduce_tasks_range=(1, 4),
            e_max=10,
            ar_probability=0.3,
            s_max=200,
            deadline_multiplier_max=3.0,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=4),
        mrcp=MrcpRmConfig(faults=faults),
        obs=obs or ObsConfig(),
    )
    # Replication r of a seed-0 config draws the stream seeded r.
    return build_live_run(config, replication=seed).finish()
