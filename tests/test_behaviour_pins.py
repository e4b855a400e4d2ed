"""Behaviour pins: sixteen seeded cases whose metrics must repeat exactly.

Three solver micro-cases, two figure experiments at smoke scale, a short
open run with LNS on, a parallel-sweep fan-out, the telemetry-on/off
equality, an admission-service load run, DAG workflow runs (with transfer
delays under MRCP-RM, without under each slot baseline) and a MapReduce
run under each slot baseline.  Seeds are fixed and the
solver is fail-limited with LNS off, except in two cases:
``solver_micro_lns`` runs LNS to a fixed target under a cap that never
binds, and ``open_lns_small`` runs LNS under a time limit that never
binds, stopping on its own counts.  So task counts, objectives,
fails/branches, N/T/P and the digests are machine-independent, and any
drift is a behaviour change, not noise.  Nothing here measures time: the
overhead metric O is wall-clock and excluded; speed is judged by
``perf/run.py`` alone.

Re-pinning after an intended behaviour change means editing ``PINS``; a
drift names the case, the metric and both values, e.g.
``fig7_small.N: pinned=3.0 got=2.0``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional

import pytest

from repro.obs.structdiff import format_entries, structural_diff

PINS: Dict[str, Dict[str, Any]] = {
    "solver_micro_warm": {"tasks": 249, "warm_late": 4},
    "solver_micro_solve": {
        "objective": 20,
        "has_solution": True,
        "fails": 200,
        "branches": 364,
    },
    "solver_micro_lns": {
        "warm_objective": 22,
        "objective": 18,
        "iterations": 24,
        "fails": 517,
        "branches": 514,
    },
    "fig2_small": {"N": 2.0, "T": 636.0, "P": 20.0, "jobs": 10, "invocations": 10},
    "fig7_small": {
        "N": 3.0,
        "T": 116.41666666666667,
        "P": 25.0,
        "jobs": 12,
        "invocations": 12,
    },
    "open_lns_small": {
        "N": 2.0,
        "T": 105.66666666666667,
        "P": 16.666666666666664,
        "jobs": 12,
        "invocations": 12,
        "lns_iterations": 94,
        "fails": 2394,
    },
    # Re-pinned when sweep cells moved to the one seeding rule (root seed,
    # replication): only the cells' seeds and those seeds' metrics moved.
    "sweep_pool": {"cells": 4, "ok": 4, "csv_sha256": "d8a66efbf83aa2ce"},
    "telemetry_overhead": {
        "ontp_equal": True,
        "samples": 136,
        "alerts_fired": 2,
        "N": 3.0,
        "P": 25.0,
    },
    "service_admission_latency": {
        "requests": 80,
        "admitted": 18,
        "rejected": 62,
        "shed": 0,
        "digest": "a63264941fe38e8d",
        "held_p50": 0.05,
        "held_p99": 0.05,
    },
    # Pinned at the last commit with two job types: a MapReduce job and
    # its two-stage DAG must run alike under every scheduler.
    "workflow_delays_mrcp": {
        "N": 2.0,
        "T": 67.75,
        "P": 16.666666666666664,
        "completed": 12,
        "turnaround_sha256": "7ad84f56c069b2da",
    },
    "workflow_minedf_wc": {
        "N": 5.0,
        "T": 58.166666666666664,
        "P": 41.66666666666667,
        "completed": 12,
        "turnaround_sha256": "8e1f94635f9942f4",
    },
    "workflow_edf": {
        "N": 4.0,
        "T": 58.5,
        "P": 33.33333333333333,
        "completed": 12,
        "turnaround_sha256": "8e3fd026cbe25e8b",
    },
    "workflow_fcfs": {
        "N": 5.0,
        "T": 59.166666666666664,
        "P": 41.66666666666667,
        "completed": 12,
        "turnaround_sha256": "49c151c0d9fdd8bf",
    },
    "mapreduce_minedf_wc": {
        "N": 5.0,
        "T": 115.16666666666667,
        "P": 41.66666666666667,
        "completed": 12,
        "turnaround_sha256": "6f5b9c4090ae670a",
    },
    "mapreduce_edf": {
        "N": 5.0,
        "T": 115.16666666666667,
        "P": 41.66666666666667,
        "completed": 12,
        "turnaround_sha256": "6f5b9c4090ae670a",
    },
    "mapreduce_fcfs": {
        "N": 5.0,
        "T": 115.75,
        "P": 41.66666666666667,
        "completed": 12,
        "turnaround_sha256": "030eee34cf36f862",
    },
}


def _micro_batch(deadline_multiplier_max: float = 3.0):
    """The 30-job closed batch of the solver micro-cases.

    Tight deadline multipliers make the warm start suboptimal so the tree
    phase has genuine work (its fail limit binds -- nonzero, pinned effort
    counters).
    """
    from repro.workload import (
        SyntheticWorkloadParams,
        generate_synthetic_workload,
        make_uniform_cluster,
    )

    params = SyntheticWorkloadParams(
        num_jobs=30,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        e_max=20,
        ar_probability=0.0,
        deadline_multiplier_max=deadline_multiplier_max,
        arrival_rate=1.0,
        total_map_slots=20,
        total_reduce_slots=20,
    )
    jobs = generate_synthetic_workload(params, seed=5)
    resources = make_uniform_cluster(10, 2, 2)
    return jobs, resources


def _deterministic_solver_params():
    """Fail-limited, LNS-off solver: identical search on every machine.

    The generous time limit never binds on the pinned instances; the fail
    limit does, so the explored tree -- and the objective -- is exact.
    """
    from repro.cp.solver import SolverParams

    return SolverParams(time_limit=30.0, tree_fail_limit=200, use_lns=False)


def _case_solver_micro_warm() -> Dict[str, Any]:
    from repro.core.formulation import build_model
    from repro.cp.heuristics import list_schedule

    jobs, resources = _micro_batch()
    formulation = build_model(jobs, resources, now=0)
    formulation.model.engine().reset()
    solution = list_schedule(formulation.model, "edf")
    return {
        "tasks": len(formulation.interval_of),
        "warm_late": solution.objective,
    }


def _case_solver_micro_solve() -> Dict[str, Any]:
    from repro.core.formulation import build_model
    from repro.cp.solver import CpSolver

    jobs, resources = _micro_batch(deadline_multiplier_max=1.2)
    solver = CpSolver(_deterministic_solver_params())
    formulation = build_model(jobs, resources, now=0)
    result = solver.solve(formulation.model)
    return {
        "objective": result.objective,
        "has_solution": bool(result.status.has_solution),
        "fails": result.stats.fails,
        "branches": result.stats.branches,
    }


def _case_solver_micro_lns() -> Dict[str, Any]:
    """LNS on the 30-job batch to a fifth below its warm start: fixed work.

    The cap is generous and never binds, so iterations, fails and branches
    are exact and pin the search LNS runs, dive for dive.
    """
    import time

    from repro.core.formulation import build_model
    from repro.cp.heuristics import best_warm_start
    from repro.cp.lns import LnsParams, lns_improve

    jobs, resources = _micro_batch(deadline_multiplier_max=1.2)
    model = build_model(jobs, resources, now=0).model
    engine = model.engine()
    engine.reset()
    engine.propagate()
    warm = best_warm_start(model)
    target = warm.objective - max(1, round(0.2 * warm.objective))
    best, stats = lns_improve(
        model,
        engine,
        warm,
        time.perf_counter() + 120.0,
        LnsParams(seed=0),
        target=target,
    )
    return {
        "warm_objective": warm.objective,
        "objective": best.objective,
        "iterations": stats.lns_iterations,
        "fails": stats.fails,
        "branches": stats.branches,
    }


def _run_once_case(config, solver_counts: bool = False) -> Dict[str, Any]:
    """N/T/P and counts of one run; O is wall-clock and left out."""
    from repro.experiments.runner import run_once

    metrics = run_once(config)
    summary = metrics.as_dict()
    case = {
        "N": summary["N"],
        "T": summary["T"],
        "P": summary["P"],
        "jobs": metrics.jobs_arrived,
        "invocations": metrics.scheduler_invocations,
    }
    if solver_counts:
        case["lns_iterations"] = metrics.solver_lns_iterations
        case["fails"] = metrics.solver_fails
    return case


def _case_fig2_small() -> Dict[str, Any]:
    from repro.core import MrcpRmConfig
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import FacebookWorkloadParams

    config = RunConfig(
        scheduler="mrcp-rm",
        workload="facebook",
        facebook=FacebookWorkloadParams(
            num_jobs=10,
            arrival_rate=0.002,
            deadline_multiplier_max=1.3,
            scale=0.05,
        ),
        system=SystemConfig(num_resources=3, map_slots=1, reduce_slots=1),
        mrcp=MrcpRmConfig(solver=_deterministic_solver_params()),
        seed=2,
    )
    return _run_once_case(config)


def _fig7_small_config():
    from repro.core import MrcpRmConfig
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import SyntheticWorkloadParams

    return RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=12,
            map_tasks_range=(1, 8),
            reduce_tasks_range=(1, 4),
            e_max=20,
            ar_probability=0.5,
            s_max=500,
            deadline_multiplier_max=1.3,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=3, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(solver=_deterministic_solver_params()),
        seed=7,
    )


def _case_fig7_small() -> Dict[str, Any]:
    return _run_once_case(_fig7_small_config())


def _case_open_lns_small() -> Dict[str, Any]:
    """A short open run with LNS on, under the sweeps' deterministic budget.

    ``MrcpRmConfig().solver`` through ``deterministic_solver_params``: the
    shipped solver, LNS included, with the clock out of the search.  LNS
    stops on counts of iterations and fails, so its work and N/T/P repeat
    exactly.  Of its three LNS calls two stop on the iteration count and
    one on the fail count.
    """
    from repro.core import MrcpRmConfig
    from repro.experiments.pool import deterministic_solver_params
    from repro.experiments.runner import RunConfig
    from repro.workload import SyntheticWorkloadParams

    solver = deterministic_solver_params(MrcpRmConfig().solver)
    config = RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=12,
            map_tasks_range=(1, 10),
            reduce_tasks_range=(1, 5),
            e_max=20,
            ar_probability=0.0,
            deadline_multiplier_max=1.5,
            arrival_rate=0.2,
        ),
        mrcp=MrcpRmConfig(solver=solver),
        seed=101,
    )
    return _run_once_case(config, solver_counts=True)


def _case_sweep_pool() -> Dict[str, Any]:
    """Parallel fan-out smoke: 2 workers over a 4-cell deterministic sweep.

    The metric pins a digest of the merged CSV, so any drift in cell
    seeding, order-independent merging, or the pinned-clock determinism
    shows up as an exact mismatch.
    """
    import hashlib

    from repro.core import MrcpRmConfig
    from repro.experiments.configs import LabeledConfig
    from repro.experiments.pool import SweepSpec, run_sweep
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import SyntheticWorkloadParams

    def point(arrival_rate: float) -> LabeledConfig:
        return LabeledConfig(
            label=f"lambda={arrival_rate:g}",
            factor_value=arrival_rate,
            scheduler="mrcp-rm",
            config=RunConfig(
                scheduler="mrcp-rm",
                workload="synthetic",
                synthetic=SyntheticWorkloadParams(
                    num_jobs=6,
                    map_tasks_range=(1, 6),
                    reduce_tasks_range=(1, 3),
                    e_max=20,
                    ar_probability=0.5,
                    s_max=500,
                    deadline_multiplier_max=1.3,
                    arrival_rate=arrival_rate,
                ),
                system=SystemConfig(num_resources=3, map_slots=2, reduce_slots=2),
                mrcp=MrcpRmConfig(solver=_deterministic_solver_params()),
            ),
        )

    spec = SweepSpec(
        name="bench-sweep",
        configs=[point(0.025), point(0.05)],
        factor="lambda",
        replications=2,
        root_seed=3,
    )
    result = run_sweep(spec, workers=2, retries=0)
    csv_digest = hashlib.sha256(result.to_csv().encode("utf-8")).hexdigest()
    return {
        "cells": len(result.outcomes),
        "ok": len(result.outcomes) - len(result.failed_cells),
        "csv_sha256": csv_digest[:16],
    }


def _case_telemetry_overhead() -> Dict[str, Any]:
    """Zero-overhead contract: telemetry on vs off, identical O/N/T/P.

    Both runs pin the overhead clock (O counts clock samples, so any
    sampler call leaking into the measured path would shift it); the
    metrics pin the equality flag, the sample count, and the fired-alert
    count.
    """
    from dataclasses import replace as _replace

    from repro.experiments.runner import build_live_run
    from repro.obs import ObsConfig
    from repro.obs.clocks import PinnedClock
    from repro.obs.timeseries import TelemetryConfig

    def with_obs(telemetry):
        return _replace(
            _fig7_small_config(),
            obs=ObsConfig(wall_clock=PinnedClock(), telemetry=telemetry),
        )

    off = build_live_run(with_obs(None)).finish()
    run = build_live_run(with_obs(TelemetryConfig(enabled=True, interval=5.0)))
    on = run.finish()
    return {
        "ontp_equal": on.as_dict() == off.as_dict(),
        "samples": len(run.sampler.store),
        "alerts_fired": len(run.slo_monitor.fired),
        "N": on.as_dict()["N"],
        "P": on.as_dict()["P"],
    }


def _case_service_admission_latency() -> Dict[str, Any]:
    """Admission-service load run: pinned verdicts and service-time latency.

    The in-process harness drives the service's sync core under a manual
    service clock, so every metric -- counts, the verdict digest (canonical
    verdicts exclude solve wall time), and the *service-time* latency
    percentiles (dominated by the batching hold bound) -- is exactly
    reproducible.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.service.batching import BatchingConfig
    from repro.service.loadgen import LoadProfile, run_inprocess
    from repro.service.server import ServiceConfig

    profile = LoadProfile(requests=80, seed=11, arrival_rate=0.5)
    config = ServiceConfig(
        batching=BatchingConfig(max_batch_size=8, max_hold_seconds=0.05)
    )
    report = run_inprocess(
        profile, config=config, num_resources=4, registry=MetricsRegistry()
    )
    return {
        "requests": report.requests,
        "admitted": report.admitted,
        "rejected": report.rejected,
        "shed": report.shed,
        "digest": report.digest,
        "held_p50": round(report.latency_p50, 6),
        "held_p99": round(report.latency_p99, 6),
    }


def _turnaround_case(config) -> Dict[str, Any]:
    """N/T/P, completed jobs and a digest of every job's turnaround."""
    import hashlib

    from repro.experiments.runner import run_once

    metrics = run_once(config)
    summary = metrics.as_dict()
    turnarounds = repr(sorted(metrics.turnarounds.items())).encode("utf-8")
    return {
        "N": summary["N"],
        "T": summary["T"],
        "P": summary["P"],
        "completed": metrics.jobs_completed,
        "turnaround_sha256": hashlib.sha256(turnarounds).hexdigest()[:16],
    }


def _workflow_case(scheduler: str, delays: bool) -> Callable[[], Dict[str, Any]]:
    """A 12-job random-DAG workflow run; transfer delays need MRCP-RM."""

    def case() -> Dict[str, Any]:
        from repro.core import MrcpRmConfig
        from repro.experiments.runner import RunConfig, SystemConfig
        from repro.workload import WorkflowWorkloadParams

        config = RunConfig(
            scheduler=scheduler,
            workload="workflow",
            workflow=WorkflowWorkloadParams(
                num_jobs=12,
                stages_range=(2, 5),
                tasks_per_stage_range=(1, 5),
                e_max=20,
                transfer_delay_range=(1, 6) if delays else (0, 0),
                deadline_multiplier_max=1.6,
                arrival_rate=0.05,
            ),
            system=SystemConfig(num_resources=3, map_slots=2, reduce_slots=2),
            mrcp=MrcpRmConfig(solver=_deterministic_solver_params()),
            seed=13,
        )
        return _turnaround_case(config)

    return case


def _mapreduce_case(scheduler: str) -> Callable[[], Dict[str, Any]]:
    """``fig7_small``'s MapReduce stream under a slot baseline."""

    def case() -> Dict[str, Any]:
        from dataclasses import replace

        return _turnaround_case(replace(_fig7_small_config(), scheduler=scheduler))

    return case


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "solver_micro_warm": _case_solver_micro_warm,
    "solver_micro_solve": _case_solver_micro_solve,
    "solver_micro_lns": _case_solver_micro_lns,
    "fig2_small": _case_fig2_small,
    "fig7_small": _case_fig7_small,
    "open_lns_small": _case_open_lns_small,
    "sweep_pool": _case_sweep_pool,
    "telemetry_overhead": _case_telemetry_overhead,
    "service_admission_latency": _case_service_admission_latency,
    "workflow_delays_mrcp": _workflow_case("mrcp-rm", delays=True),
    "workflow_minedf_wc": _workflow_case("minedf-wc", delays=False),
    "workflow_edf": _workflow_case("edf", delays=False),
    "workflow_fcfs": _workflow_case("fcfs", delays=False),
    "mapreduce_minedf_wc": _mapreduce_case("minedf-wc"),
    "mapreduce_edf": _mapreduce_case("edf"),
    "mapreduce_fcfs": _mapreduce_case("fcfs"),
}


def judge(
    name: str, case: Callable[[], Dict[str, Any]], pinned: Dict[str, Any]
) -> Optional[str]:
    """Run ``case`` twice; the failure message, or None if it holds its pin.

    Two runs that disagree are nondeterminism in a pinned case, reported
    before (and instead of) any comparison with the pin.
    """
    first, second = case(), case()
    runs = structural_diff({name: first}, {name: second})
    if runs:
        shown = format_entries(runs, len(runs), "run1", "run2")
        return f"nondeterministic: {shown}"
    drift = structural_diff({name: pinned}, {name: first})
    if drift:
        return format_entries(drift, len(drift), "pinned", "got")
    return None


@pytest.mark.parametrize("name", PINS)
def test_behaviour_pin(name):
    failure = judge(name, CASES[name], PINS[name])
    if failure is not None:
        pytest.fail(failure, pytrace=False)


def test_every_case_is_pinned():
    assert set(CASES) == set(PINS)


def test_perturbed_pin_names_case_metric_and_values():
    """A moved metric prints its case, its name and both values."""
    perturbed = {**PINS["fig7_small"], "N": 2.0}
    failure = judge("fig7_small", lambda: dict(PINS["fig7_small"]), perturbed)
    assert failure == "fig7_small.N: pinned=2.0 got=3.0"


def test_nondeterministic_case_fails():
    """A case whose second run disagrees with its first is never compared."""
    runs = iter(({"n": 1}, {"n": 2}))
    failure = judge("flaky", lambda: next(runs), {"n": 1})
    assert failure == "nondeterministic: flaky.n: run1=1 run2=2"


def test_pins_record_real_effort():
    """The solver cases must exercise the search, not trivially pass."""
    solve = PINS["solver_micro_solve"]
    assert solve["fails"] > 0 and solve["branches"] > 0
    lns = PINS["solver_micro_lns"]
    assert lns["objective"] < lns["warm_objective"]
    assert lns["iterations"] > 1 and lns["fails"] > 0 and lns["branches"] > 0
    assert PINS["fig7_small"]["N"] > 0


def test_pins_hold_no_timing():
    """Speed is ``perf/``'s question: the table carries no wall time."""
    timing = re.compile("wall|time|calibration|rounds|smoke")
    keys = [key for case in PINS.values() for key in case]
    assert [key for key in keys if timing.search(key)] == []
