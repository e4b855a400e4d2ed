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
* :mod:`repro.sim` -- discrete event simulation kernel, seeded random
  streams, replication statistics.
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
    tracer=None,
) -> RunMetrics:
    """Run a small MRCP-RM open system end to end; returns its metrics.

    Pass a :class:`FaultModel` to subject the run to task failures,
    stragglers, and resource outages; the default (``None``) is the
    fault-free happy path.  Pass a :class:`repro.obs.trace.Tracer` to
    capture a trace of the run (the caller writes it out afterwards).
    """
    params = SyntheticWorkloadParams(
        num_jobs=num_jobs,
        map_tasks_range=(1, 8),
        reduce_tasks_range=(1, 4),
        e_max=10,
        ar_probability=0.3,
        s_max=200,
        deadline_multiplier_max=3.0,
        arrival_rate=0.05,
        total_map_slots=8,
        total_reduce_slots=8,
    )
    jobs = generate_synthetic_workload(params, seed=seed)
    resources = make_uniform_cluster(4, 2, 2)
    sim = Simulator()
    metrics = MetricsCollector()
    if tracer is not None:
        from repro.obs.trace import NULL_TRACER

        if tracer is not NULL_TRACER:  # never mutate the shared null tracer
            tracer.bind_sim_clock(lambda: sim.now)
        sim.attach_observability(tracer.registry)
    manager = MrcpRm(
        sim, resources, MrcpRmConfig(faults=faults), metrics, tracer=tracer
    )
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    sim.run()
    manager.executor.assert_quiescent()
    return metrics.finalize()
