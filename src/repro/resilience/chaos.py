"""Chaos harness: prove checkpoint/restore and the ladder under real abuse.

Three scenarios, all seeded and fully deterministic:

* :func:`kill_restore_cycle` -- run with checkpoints, kill the run at a
  checkpoint boundary (the driver genuinely stops; nothing past the
  boundary executes), restore from the snapshot, run to completion, and
  require the restored run's O/N/T/P to be **byte-identical** to an
  uninterrupted same-seed run (pin the config with
  :func:`~repro.experiments.pool.deterministic_run_config` first).
* :func:`overload_burst` -- spike the arrival rate and force the CP
  rungs to fail via injected solver failures, driving the degradation
  ladder through all four rungs while the run stays correct; repeated
  runs must agree exactly (determinism under overload).
* :func:`pool_worker_death` -- run a sweep across real worker processes
  with a runner that hard-kills (``os._exit``) its process on the first
  attempt of one cell; the PR 4 pool's worker-death recovery must retry
  the cell and the merged ``sweep.csv`` must stay byte-identical to an
  undisturbed sequential sweep.

Every scenario also audits run invariants (:func:`invariant_violations`):
no job may be lost or double-counted, simulated time must be monotone
across checkpoints, and no task may exceed its retry budget.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core import MrcpRmConfig
from repro.experiments.configs import LabeledConfig
from repro.experiments.pool import (
    CellJob,
    CellOutcome,
    SweepSpec,
    deterministic_run_config,
    run_sweep,
)
from repro.experiments.pool import execute_cell as _execute_cell
from repro.experiments.runner import (
    LiveRun,
    RunConfig,
    SystemConfig,
    build_live_run,
)
from repro.faults import FaultModel, OutageWindow
from repro.metrics.collector import SOLVER_WALL_TIME_KEYS, RunMetrics
from repro.obs.logs import get_logger, kv
from repro.resilience.breaker import InjectedSolverFailures, LadderConfig
from repro.resilience.checkpoint import (
    CheckpointConfig,
    restore_run,
    run_with_checkpoints,
)
from repro.workload import SyntheticWorkloadParams

_LOG = get_logger("resilience.chaos")

#: The four metrics whose byte-identity the kill/restore contract covers.
ONTP = ("O", "N", "T", "P")


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    scenario: str
    passed: bool
    #: Human-readable contract violations (empty when ``passed``).
    violations: List[str] = field(default_factory=list)
    #: Scenario-specific evidence (metrics, digests, rung counts...).
    details: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        """Multi-line human-readable verdict (details + violations)."""
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.scenario}"]
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Invariants
# --------------------------------------------------------------------------


def invariant_violations(run: LiveRun, metrics: RunMetrics) -> List[str]:
    """Audit a drained run against the chaos harness's invariants."""
    out: List[str] = []
    if metrics.jobs_completed + metrics.jobs_failed != metrics.jobs_arrived:
        out.append(
            f"jobs lost: {metrics.jobs_arrived} arrived but "
            f"{metrics.jobs_completed} completed + {metrics.jobs_failed} failed"
        )
    completed_and_failed = set(metrics.turnarounds) & set(metrics.failed_job_ids)
    if completed_and_failed:
        out.append(f"jobs both completed and failed: {sorted(completed_and_failed)}")
    if run.sim.now < 0:
        out.append(f"simulation time went negative: {run.sim.now}")
    manager = run.manager
    if manager is not None:
        budget = manager.config.max_task_retries + 1  # initial try + retries
        for job in manager.executor.jobs.values():
            for task in job.tasks:
                if task.attempts > budget:
                    out.append(
                        f"task {task.id} used {task.attempts} attempts "
                        f"(budget {budget})"
                    )
    return out


def _monotone_violations(snapshots: List[dict]) -> List[str]:
    """Checkpoint positions must advance strictly in events and weakly in time."""
    out: List[str] = []
    for prev, cur in zip(snapshots, snapshots[1:]):
        p, c = prev["position"], cur["position"]
        if c["events_dispatched"] <= p["events_dispatched"]:
            out.append(
                f"events went backwards: {p['events_dispatched']} -> "
                f"{c['events_dispatched']}"
            )
        if c["sim_now"] < p["sim_now"]:
            out.append(f"sim time went backwards: {p['sim_now']} -> {c['sim_now']}")
    return out


def _ontp(metrics: RunMetrics) -> Dict[str, float]:
    d = metrics.as_dict()
    return {k: d[k] for k in ONTP}


def _comparable(metrics: RunMetrics) -> Dict[str, float]:
    """The verbose metric dict minus the solver's real wall times, which can
    never be byte-identical across runs."""
    d = metrics.as_dict(verbose=True)
    return {k: v for k, v in d.items() if k not in SOLVER_WALL_TIME_KEYS}


# --------------------------------------------------------------------------
# Scenario configs
# --------------------------------------------------------------------------


def default_chaos_config(
    seed: int = 0,
    num_jobs: int = 8,
    arrival_rate: float = 0.05,
    faults: bool = True,
    ladder: Optional[LadderConfig] = None,
) -> RunConfig:
    """A small, fault-ridden, fully deterministic mrcp-rm run.

    Big enough to exercise retries, an outage window and re-plans; small
    enough that a kill/restore cycle completes in seconds.  Always pinned
    (:func:`deterministic_run_config`) so O replays byte-identically.
    """
    fault_model = None
    if faults:
        fault_model = FaultModel(
            task_failure_prob=0.15,
            outages=(OutageWindow(0, 30.0, 15.0),),
            seed=seed,
        )
    config = RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs,
            map_tasks_range=(1, 3),
            reduce_tasks_range=(1, 2),
            e_max=8,
            ar_probability=0.2,
            s_max=50,
            deadline_multiplier_max=3.0,
            arrival_rate=arrival_rate,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(faults=fault_model, resilience=ladder),
        seed=seed,
    )
    return deterministic_run_config(config)


def escalation_ladder(rounds: int = 1) -> LadderConfig:
    """A ladder configured to demonstrably walk all four rungs.

    Injected failures make the first ``rounds`` attempts of each CP rung
    and of EDF fail, so early invocations escalate to ``greedy``, the
    breakers trip open, and later invocations recover rung by rung as the
    probes succeed -- the full state machine in one short run.
    """
    return LadderConfig(
        failure_threshold=1,
        cooldown=2,
        chaos=InjectedSolverFailures(
            counts={"cp_full": rounds + 2, "cp_limited": rounds + 1, "edf": rounds}
        ),
    )


# --------------------------------------------------------------------------
# Scenario: kill at a checkpoint, restore, compare
# --------------------------------------------------------------------------


def kill_restore_cycle(
    config: Optional[RunConfig] = None,
    kill_after_checkpoints: int = 2,
    every_events: int = 20,
    replication: int = 0,
    out_dir: Optional[str] = None,
) -> ChaosReport:
    """Kill a checkpointed run and prove the restore is byte-identical."""
    if config is None:
        config = default_chaos_config()
    ckpt = CheckpointConfig(every_events=every_events, out_dir=out_dir)
    violations: List[str] = []

    # The uninterrupted reference run (and its invariant audit).
    reference = build_live_run(config, replication)
    ref_metrics = reference.finish()
    violations += invariant_violations(reference, ref_metrics)

    # The run that dies at a checkpoint boundary.
    killed = run_with_checkpoints(
        config, ckpt, replication, kill_after_checkpoints=kill_after_checkpoints
    )
    if not killed.killed:
        violations.append(
            f"run drained after {len(killed.snapshots)} checkpoints before the "
            f"kill point ({kill_after_checkpoints}); shrink every_events"
        )
    if not killed.snapshots:
        violations.append("no checkpoints were written before the kill")
    violations += _monotone_violations(killed.snapshots)

    restored_ontp: Dict[str, float] = {}
    if killed.snapshots:
        # Restore from the file when persisted (exercises the read path).
        source: "dict | str" = killed.snapshots[-1]
        if killed.paths:
            source = killed.paths[-1]
        restored = restore_run(config, source, replication)
        restored_ontp = _ontp(restored)
        if restored_ontp != _ontp(ref_metrics):
            violations.append(
                f"restored O/N/T/P {restored_ontp} != uninterrupted "
                f"{_ontp(ref_metrics)}"
            )
        if _comparable(restored) != _comparable(ref_metrics):
            violations.append(
                "restored verbose metrics differ from the uninterrupted run"
            )

    report = ChaosReport(
        scenario="kill_restore_cycle",
        passed=not violations,
        violations=violations,
        details={
            "checkpoints": len(killed.snapshots),
            "killed_at_events": (
                killed.snapshots[-1]["position"]["events_dispatched"]
                if killed.snapshots
                else None
            ),
            "reference_ontp": _ontp(ref_metrics),
            "restored_ontp": restored_ontp,
        },
    )
    _LOG.info("chaos %s", kv(scenario=report.scenario, passed=report.passed))
    return report


# --------------------------------------------------------------------------
# Scenario: overload burst through the degradation ladder
# --------------------------------------------------------------------------


def overload_burst(
    config: Optional[RunConfig] = None,
    burst_factor: float = 10.0,
    replication: int = 0,
) -> ChaosReport:
    """Arrival spike + failing CP rungs: the ladder must absorb the load.

    Contract: the run completes with every job accounted for, the plan
    provably came from **all four rungs** at some point (metrics
    ``solves_by_rung``), at least one breaker tripped open, and a second
    identical run reproduces the exact same metrics (determinism under
    degradation).
    """
    if config is None:
        base = default_chaos_config(faults=False, ladder=escalation_ladder())
        base = replace(
            base,
            synthetic=replace(
                base.synthetic,
                arrival_rate=base.synthetic.arrival_rate * burst_factor,
            ),
        )
        config = base
    violations: List[str] = []

    run = build_live_run(config, replication)
    metrics = run.finish()
    violations += invariant_violations(run, metrics)

    rungs = metrics.solves_by_rung
    missing = [r for r in ("cp_full", "cp_limited", "edf", "greedy") if not rungs.get(r)]
    if missing:
        violations.append(f"ladder never used rungs {missing} (saw {rungs})")
    if metrics.breaker_opens < 1:
        violations.append("no circuit breaker ever opened under overload")

    # Determinism under degradation: same seed, same everything.
    rerun = build_live_run(config, replication)
    rerun_metrics = rerun.finish()
    if _comparable(rerun_metrics) != _comparable(metrics):
        violations.append("two identical overload runs produced different metrics")

    report = ChaosReport(
        scenario="overload_burst",
        passed=not violations,
        violations=violations,
        details={
            "solves_by_rung": dict(rungs),
            "breaker_opens": metrics.breaker_opens,
            "jobs": metrics.jobs_arrived,
            "late_jobs": metrics.late_jobs,
            "fallback_solves": metrics.fallback_solves,
        },
    )
    _LOG.info("chaos %s", kv(scenario=report.scenario, passed=report.passed))
    return report


# --------------------------------------------------------------------------
# Scenario: worker death inside the process pool
# --------------------------------------------------------------------------

#: Cell index whose first attempt hard-kills its worker process.
_DEATH_CELL = 0


def _die_once_runner(job: CellJob) -> CellOutcome:
    """Pool runner that kills its process on one cell's first attempt.

    Module-level (picklable by reference).  ``os._exit`` bypasses every
    handler -- the pool sees a genuinely dead worker, exactly the crash
    mode PR 4's recovery path exists for; the retry then succeeds.
    """
    if job.cell.index == _DEATH_CELL and job.attempt == 1:
        os._exit(17)
    return _execute_cell(job)


def _csv_digest(path: str) -> str:
    """Digest of ``sweep.csv`` minus the ``attempts`` column.

    ``attempts`` is *supposed* to differ after a worker death (that is
    the retry working); every result column must stay byte-identical.
    """
    h = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        drop = header.index("attempts") if "attempts" in header else -1
        for row in [header] + list(reader):
            if drop >= 0:
                row = row[:drop] + row[drop + 1 :]
            h.update(",".join(row).encode("utf-8") + b"\n")
    return h.hexdigest()


def pool_worker_death(
    out_dir: str,
    config: Optional[RunConfig] = None,
    replications: int = 2,
    workers: int = 2,
) -> ChaosReport:
    """Kill a sweep worker mid-flight; merged output must not notice.

    Runs the same sweep twice into ``out_dir``: once sequentially and
    undisturbed (the reference), once across real processes with
    :func:`_die_once_runner` killing one worker on its first attempt.
    The pool must retry the dead cell and the merged ``sweep.csv`` must
    be byte-identical to the reference.
    """
    if config is None:
        config = default_chaos_config(faults=False)
    spec = SweepSpec(
        name="chaos-worker-death",
        configs=[LabeledConfig("base", 1.0, config.scheduler, config)],
        factor="chaos",
        replications=replications,
        root_seed=config.seed,
    )
    violations: List[str] = []

    ref_dir = os.path.join(out_dir, "reference")
    chaos_dir = os.path.join(out_dir, "worker-death")
    reference = run_sweep(spec, workers=1, out_dir=ref_dir)
    if reference.failed_cells:
        violations.append(
            f"reference sweep failed cells: "
            f"{[(c.label, c.replication) for c in reference.failed_cells]}"
        )
    chaotic = run_sweep(
        spec,
        workers=workers,
        retries=1,
        out_dir=chaos_dir,
        runner=_die_once_runner,
    )
    if chaotic.failed_cells:
        violations.append(
            f"cells failed despite retry after worker death: "
            f"{[(c.label, c.replication) for c in chaotic.failed_cells]}"
        )
    retried = [o for o in chaotic.outcomes if o.attempts > 1]
    if not retried:
        violations.append("no cell was retried: the worker death never happened")

    ref_digest = _csv_digest(os.path.join(ref_dir, "sweep.csv"))
    chaos_digest = _csv_digest(os.path.join(chaos_dir, "sweep.csv"))
    if ref_digest != chaos_digest:
        violations.append(
            f"sweep.csv digest changed across worker death: "
            f"{ref_digest[:12]} != {chaos_digest[:12]}"
        )

    report = ChaosReport(
        scenario="pool_worker_death",
        passed=not violations,
        violations=violations,
        details={
            "cells": len(chaotic.outcomes),
            "retried_cells": len(retried),
            "sweep_csv_digest": ref_digest[:16],
        },
    )
    _LOG.info("chaos %s", kv(scenario=report.scenario, passed=report.passed))
    return report
