"""Behaviour pins: a small fixed suite, a committed baseline, exact comparison.

``mrcp-rm bench`` (``python -m repro.bench``) runs nine pinned cases --
three solver micro-cases, two figure experiments at smoke scale, a short
open run with LNS on, a parallel-sweep fan-out, the telemetry-on/off
equality and an admission service load run -- and emits a schema-versioned
JSON result that is compared *exactly* against the committed
``BENCH_core.json``.  The suite pins seeds and runs the solver fail-limited
with LNS off, except in two cases: ``solver_micro_lns`` runs LNS to a fixed
target under a cap that never binds, and ``open_lns_small`` runs LNS under
a time limit that never binds, stopping on its own counts.  So task counts,
objectives, fails/branches, N/T/P and the digests are machine-independent
and any drift is a behaviour change, not noise.  Each case runs twice; two
runs that disagree are nondeterminism in a pinned case and raise.

Nothing here measures time: the overhead metric O is wall-clock and is
excluded from the pins, and speed is judged by the repo benchmark
(``perf/run.py`` + ``perf/compare.py``) alone.

``compare`` returns human-readable failure strings naming case, metric,
baseline and current value; the CLI exits nonzero on any.  ``--replay``
re-compares a previously written result file without re-running the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.ioutil import atomic_write_json

SCHEMA = "repro-bench/2"
DEFAULT_BASELINE = "BENCH_core.json"

# --------------------------------------------------------------------------
# Suite definition
# --------------------------------------------------------------------------


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
    """Model build + warm-start list scheduling on the 30-job batch."""
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
    """Full deterministic (fail-limited, LNS-off) solve of the 30-job batch."""
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

    Root propagation, ``best_warm_start``, then ``lns_improve`` until the
    target; the cap is generous and never binds, so iterations, fails and
    branches are exact and pin the search LNS runs, dive for dive.
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
    """Run one experiment config; report its deterministic metrics.

    O (scheduling overhead) is wall-clock and excluded; N/T/P depend only
    on the seeded workload and the deterministic solver.  ``solver_counts``
    adds the run's LNS iterations and search fails.
    """
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
    """Figure 2 shape at smoke scale: Facebook workload through MRCP-RM."""
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
    """Figure 7 at smoke scale: a tight-deadline synthetic workload."""
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
    """Figure 7 shape at smoke scale through MRCP-RM."""
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
        "ok": len(result.ok_cells),
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
    reproducible; ``mrcp-rm bench --replay`` replays it byte-for-byte.
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


#: The pinned suite: name -> case callable returning its metrics.
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
}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


def env_fingerprint() -> Dict[str, Any]:
    """Where the result was produced (informational; never compared)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_suite() -> Dict[str, Any]:
    """Run every case twice and return the result document.

    The second run exists only to catch nondeterminism: metrics that
    differ between the two runs of a pinned case are an error, not a
    result.
    """
    cases: Dict[str, Any] = {}
    for name, fn in CASES.items():
        first, second = fn(), fn()
        if first != second:
            raise RuntimeError(
                f"bench case {name!r} is nondeterministic: {first} != {second}"
            )
        cases[name] = {"metrics": first}
    return {
        "schema": SCHEMA,
        "suite": "core",
        "env": env_fingerprint(),
        "cases": cases,
    }


# --------------------------------------------------------------------------
# Comparing
# --------------------------------------------------------------------------


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Compare a result against the baseline; return failure descriptions.

    Every metric the baseline pins must match exactly.  An empty list
    means no regression.
    """
    failures: List[str] = []
    if current.get("schema") != SCHEMA or baseline.get("schema") != SCHEMA:
        return [
            f"schema mismatch: current={current.get('schema')!r} "
            f"baseline={baseline.get('schema')!r} expected={SCHEMA!r}"
        ]
    cur_cases = current.get("cases", {})
    for name, base in baseline.get("cases", {}).items():
        cur = cur_cases.get(name)
        if cur is None:
            failures.append(f"{name}: case missing from current result")
            continue
        for key, expected in base["metrics"].items():
            got = cur["metrics"].get(key)
            if got != expected:
                failures.append(
                    f"{name}: metric {key!r} changed: "
                    f"baseline={expected!r} current={got!r}"
                )
    return failures


def load_result(path: str) -> Dict[str, Any]:
    """Read a bench result/baseline JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_result(path: str, result: Dict[str, Any]) -> None:
    """Write a bench result JSON file (stable key order, trailing newline)."""
    atomic_write_json(path, result, sort_keys=False)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench`` options onto ``parser``."""
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline JSON to compare against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--out", default=None, help="also write the current result here"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="(re)write the baseline from this run instead of comparing",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="RESULT_JSON",
        help="compare this previously written result instead of re-running",
    )


def run_bench_command(args: argparse.Namespace) -> int:
    """Execute ``repro bench``; returns the process exit code.

    0 = no regression (or baseline updated); 1 = regression detected;
    2 = baseline missing/unreadable.
    """
    if args.replay is not None:
        current = load_result(args.replay)
        print(f"replaying result from {args.replay}")
    else:
        current = run_suite()
        for name, case in current["cases"].items():
            print(f"  {name:26s} metrics={case['metrics']}")
    if args.out is not None and args.replay is None:
        write_result(args.out, current)
        print(f"wrote result to {args.out}")
    if args.update:
        write_result(args.baseline, current)
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"error: baseline {args.baseline} not found "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 2
    baseline = load_result(args.baseline)
    failures = compare(current, baseline)
    if failures:
        print(f"REGRESSION: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        offending = sorted({f.split(":", 1)[0] for f in failures})
        print(f"offending case(s): {', '.join(offending)}", file=sys.stderr)
        return 1
    print(f"ok: {len(baseline.get('cases', {}))} cases match the baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__.splitlines()[0]
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
