"""Single-run experiment execution.

One :func:`run_once` call = one simulated open system: a workload stream is
generated, submitted to the chosen resource manager inside a fresh
discrete-event simulation, run to drain, and summarised as
:class:`~repro.metrics.collector.RunMetrics`.

Replication ``r`` of a config with seed ``s`` runs on the stream seeded
:func:`replication_seed` ``(s, r) = s * 10_007 + r``.  The workload depends
only on (workload params, that seed) -- never on the scheduler or a solver
knob -- so every point, scheduler and ablation arm of one replication faces
the *same* random stream (common random numbers), as the paper's MRCP-RM vs
MinEDF-WC comparison requires.  Replications and sweeps are
:func:`repro.experiments.pool.run_sweep`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.baselines import (
    EdfPolicy,
    FcfsPolicy,
    MinEdfWcPolicy,
    SlotScheduler,
)
from repro.core import MrcpRm, MrcpRmConfig
from repro.metrics import MetricsCollector, RunMetrics
from repro.obs import ObsConfig
from repro.obs.slo import SloMonitor, default_slos
from repro.obs.timeseries import NULL_SAMPLER
from repro.obs.trace import NULL_TRACER
from repro.sim import RandomStreams, Simulator
from repro.workload import (
    FacebookWorkloadParams,
    SyntheticWorkloadParams,
    WorkflowWorkloadParams,
    generate_facebook_workload,
    generate_synthetic_workload,
    generate_workflow_workload,
    make_uniform_cluster,
    validate_jobs,
)

SCHEDULERS = ("mrcp-rm", "minedf-wc", "edf", "fcfs")
#: Every scheduler handles plain DAG workflows; transfer delays need the
#: plan-driven CP path (the slot-pull model has no "ready in d seconds").
WORKFLOW_SCHEDULERS = SCHEDULERS
WORKFLOW_DELAY_SCHEDULERS = ("mrcp-rm",)


@dataclass
class SystemConfig:
    """The paper's system component: m identical resources."""

    num_resources: int = 10
    map_slots: int = 2
    reduce_slots: int = 2

    @property
    def total_map_slots(self) -> int:
        return self.num_resources * self.map_slots

    @property
    def total_reduce_slots(self) -> int:
        return self.num_resources * self.reduce_slots


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    scheduler: str = "mrcp-rm"
    workload: str = "synthetic"  # "synthetic" | "facebook" | "workflow"
    synthetic: Optional[SyntheticWorkloadParams] = None
    facebook: Optional[FacebookWorkloadParams] = None
    workflow: Optional[WorkflowWorkloadParams] = None
    system: SystemConfig = field(default_factory=SystemConfig)
    #: The manager's knobs; its fault scenario (``mrcp.faults``) is
    #: re-seeded per replication, like the workload.
    mrcp: MrcpRmConfig = field(default_factory=MrcpRmConfig)
    #: Observability: tracing, logging, solver profiling, injectable clock.
    #: All off by default -- the run is byte-identical to an unobserved one.
    obs: ObsConfig = field(default_factory=ObsConfig)
    seed: int = 0

    def validate(self) -> None:
        """Reject inconsistent scheduler/workload combinations early."""
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected {SCHEDULERS}"
            )
        faults = self.mrcp.faults
        if faults is not None and faults.enabled and self.scheduler != "mrcp-rm":
            raise ValueError(
                f"fault injection is a plan-driven (mrcp-rm) feature; "
                f"scheduler {self.scheduler!r} does not support it"
            )
        if self.workload == "synthetic" and self.synthetic is None:
            raise ValueError("synthetic workload selected but no params")
        if self.workload == "facebook" and self.facebook is None:
            raise ValueError("facebook workload selected but no params")
        if self.workload == "workflow":
            if self.workflow is None:
                raise ValueError("workflow workload selected but no params")
            lo, hi = self.workflow.transfer_delay_range
            if hi > 0 and self.scheduler not in WORKFLOW_DELAY_SCHEDULERS:
                raise ValueError(
                    f"scheduler {self.scheduler!r} does not support workflow "
                    f"transfer delays; use one of {WORKFLOW_DELAY_SCHEDULERS}"
                )
        if self.workload not in ("synthetic", "facebook", "workflow"):
            raise ValueError(f"unknown workload {self.workload!r}")


def _generate_jobs(config: RunConfig, seed: int):
    streams = RandomStreams(seed)
    if config.workload == "synthetic":
        assert config.synthetic is not None
        params = replace(
            config.synthetic,
            total_map_slots=config.system.total_map_slots,
            total_reduce_slots=config.system.total_reduce_slots,
        )
        jobs = generate_synthetic_workload(params, streams=streams)
    elif config.workload == "facebook":
        assert config.facebook is not None
        params = replace(
            config.facebook,
            total_map_slots=config.system.total_map_slots,
            total_reduce_slots=config.system.total_reduce_slots,
        )
        jobs = generate_facebook_workload(params, streams=streams)
    else:
        assert config.workflow is not None
        params = replace(
            config.workflow,
            total_map_slots=config.system.total_map_slots,
            total_reduce_slots=config.system.total_reduce_slots,
        )
        jobs = generate_workflow_workload(params, streams=streams)
    problems = validate_jobs(jobs)
    if problems:
        raise ValueError("generated workload invalid:\n  " + "\n  ".join(problems))
    return jobs


@dataclass
class LiveRun:
    """A fully wired, not-yet-run simulation (one :func:`run_once` body).

    :func:`build_live_run` assembles it; callers either let
    :meth:`finish` drain the calendar in one go (what :func:`run_once`
    does) or drive ``sim.step()`` themselves -- the checkpoint loop in
    :mod:`repro.resilience.checkpoint` pauses at event boundaries to
    snapshot state, something a monolithic ``sim.run()`` cannot do.
    """

    config: RunConfig
    replication: int
    seed: int
    sim: Simulator
    metrics: MetricsCollector
    tracer: object
    jobs: list
    resources: list
    #: The MrcpRm instance (None for the slot-scheduler baselines).
    manager: Optional[MrcpRm]
    #: Telemetry sampler (the shared null sampler when telemetry is off).
    sampler: object = NULL_SAMPLER
    #: Burn-rate monitor, present only when telemetry is on.
    slo_monitor: Optional[SloMonitor] = None
    _quiescent: object = None

    def finish(self) -> RunMetrics:
        """Drain the calendar, check invariants, finalize the metrics."""
        self.sim.run()
        self._quiescent()
        self.sampler.finalize()
        result = self.metrics.finalize()
        # Under fault injection a job may legitimately end in the "failed"
        # state (retry budget exhausted); every job must still end
        # *somewhere*.
        if result.jobs_completed + result.jobs_failed != result.jobs_arrived:
            raise RuntimeError(
                f"{result.jobs_arrived - result.jobs_completed - result.jobs_failed}"
                f" jobs never completed (scheduler {self.config.scheduler})"
            )
        if self.tracer.enabled and self.config.obs.trace_out is not None:
            self.tracer.write(self.config.obs.trace_out)
        telemetry = self.config.obs.telemetry
        if self.sampler.enabled and telemetry is not None:
            if telemetry.series_out is not None:
                self.sampler.write_series(telemetry.series_out)
            if telemetry.alerts_out is not None and self.slo_monitor is not None:
                self.slo_monitor.write_alerts(telemetry.alerts_out)
        return result


def replication_seed(seed: int, replication: int) -> int:
    """The random-stream seed of replication ``replication`` of ``seed``."""
    return seed * 10_007 + replication


def build_live_run(config: RunConfig, replication: int = 0) -> LiveRun:
    """Wire up one replication without running it (see :class:`LiveRun`)."""
    config.validate()
    seed = replication_seed(config.seed, replication)
    jobs = _generate_jobs(config, seed)
    resources = make_uniform_cluster(
        config.system.num_resources,
        config.system.map_slots,
        config.system.reduce_slots,
    )

    sim = Simulator()
    metrics = MetricsCollector()
    tracer = config.obs.make_tracer()
    if tracer is not NULL_TRACER:
        # Never mutate the shared null tracer; a private one (even a
        # disabled one carrying an injected wall clock) binds this run's
        # simulation clock so spans carry simulated timestamps.
        tracer.bind_sim_clock(lambda: sim.now)
    sim.attach_observability(tracer.registry)

    manager: Optional[MrcpRm] = None
    if config.scheduler == "mrcp-rm":
        mrcp = config.mrcp
        if mrcp.faults is not None and mrcp.faults.enabled:
            # Re-seed the fault model per replication (like the workload)
            # so replications see independent fault draws while staying
            # exactly reproducible.
            mrcp = replace(mrcp, faults=replace(mrcp.faults, seed=seed))
        manager = MrcpRm(sim, resources, mrcp, metrics, tracer=tracer)
        submit = manager.submit
        quiescent = manager.executor.assert_quiescent
    else:
        policy = {
            "minedf-wc": MinEdfWcPolicy,
            "edf": EdfPolicy,
            "fcfs": FcfsPolicy,
        }[config.scheduler]()
        scheduler = SlotScheduler(sim, resources, policy, metrics)
        submit = scheduler.submit
        quiescent = scheduler.cluster.assert_quiescent

    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: submit(j))

    sampler = config.obs.make_sampler()
    slo_monitor: Optional[SloMonitor] = None
    if sampler.enabled:
        sampler.attach(sim, collector=metrics, registry=tracer.registry)
        if manager is not None:
            manager.attach_telemetry(sampler)
        slo_monitor = SloMonitor(default_slos(), tracer=tracer)
        slo_monitor.subscribe(sampler)
        # Start *after* jobs are scheduled so the sampler sees a non-empty
        # calendar and rides it to the drain.
        sampler.start()
    return LiveRun(
        config=config,
        replication=replication,
        seed=seed,
        sim=sim,
        metrics=metrics,
        tracer=tracer,
        jobs=jobs,
        resources=resources,
        manager=manager,
        sampler=sampler,
        slo_monitor=slo_monitor,
        _quiescent=quiescent,
    )


def run_once(config: RunConfig, replication: int = 0) -> RunMetrics:
    """Execute one replication of ``config`` and return its metrics."""
    return build_live_run(config, replication).finish()


# Parallel fan-out lives in repro.experiments.pool; re-exported lazily (PEP
# 562) so callers keep one entry point for the single-run and sweep APIs
# while pool can import run_once from here without a cycle.
_POOL_EXPORTS = ("SweepCell", "SweepResult", "SweepSpec", "run_sweep")

__all__ = [
    "RunConfig",
    "SystemConfig",
    "SCHEDULERS",
    "LiveRun",
    "build_live_run",
    "run_once",
    "replication_seed",
    *_POOL_EXPORTS,
]


def __getattr__(name: str):
    if name in _POOL_EXPORTS:
        from repro.experiments import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
