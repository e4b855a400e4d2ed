#!/usr/bin/env python
"""SLA forensics end to end: run with faults, attribute lateness, report.

Runs a deadline-tight synthetic workload through MRCP-RM under fault
injection (task failures, stragglers, random resource outages) with tracing
and plan history on, decomposes every late job's tardiness into slot
contention / solver delay / fault recovery / residual execution
(:mod:`repro.obs.forensics`), and writes the self-contained HTML run report
(:mod:`repro.obs.report`) -- open it in any browser, no network needed.

Run:  PYTHONPATH=src python examples/forensics_run.py --out report.html

``--smoke`` shrinks nothing (the run is already seconds-long) but switches
from a pretty summary to *checks*: the trace must pass strict Chrome
trace-event conformance, every attribution must be nonnegative and sum
exactly to the measured tardiness, and the report must be a single
self-contained HTML file (inline SVG, no scripts, no external references).
Exits non-zero on any violation (used by the CI trace-smoke job).
"""

import argparse
import sys

from repro.core import MrcpRm, MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.faults import FaultModel
from repro.ioutil import atomic_write_text
from repro.metrics import MetricsCollector
from repro.obs import ObsConfig
from repro.obs.conformance import validate_trace_events
from repro.obs.forensics import attribute_lateness, format_attributions
from repro.obs.report import render_report
from repro.sim import RandomStreams, Simulator
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)


def _check(ok: bool, message: str) -> None:
    """Print and exit non-zero when a smoke assertion fails."""
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _run(seed: int):
    """One traced, fault-injected, deadline-tight MRCP-RM run.

    Returns (metrics, jobs, resources, events, plan_history).
    """
    params = SyntheticWorkloadParams(
        num_jobs=14,
        total_map_slots=8,
        total_reduce_slots=8,
        deadline_multiplier_max=1.4,
        scale=0.1,
    )
    jobs = generate_synthetic_workload(params, streams=RandomStreams(seed))
    resources = make_uniform_cluster(4, 2, 2)
    sim = Simulator()
    metrics = MetricsCollector()
    tracer = ObsConfig(trace=True, plan_history=True).make_tracer()
    tracer.bind_sim_clock(lambda: sim.now)
    sim.attach_observability(tracer.registry)
    faults = FaultModel(
        task_failure_prob=0.15,
        straggler_prob=0.2,
        straggler_factor=2.0,
        outage_rate=0.002,
        outage_duration_range=(30.0, 90.0),
        outage_horizon=2000.0,
        seed=seed,
    )
    config = MrcpRmConfig(
        faults=faults,
        record_plan_history=True,
        solver=SolverParams(time_limit=0.5, tree_fail_limit=200, use_lns=False),
    )
    manager = MrcpRm(sim, resources, config, metrics, tracer=tracer)
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    sim.run()
    manager.executor.assert_quiescent()
    result = metrics.finalize()
    return result, jobs, resources, tracer.recorder.events, manager.plan_history


def smoke(out: str, seed: int) -> None:
    """CI mode: conformance + attribution invariants + report self-containment."""
    result, jobs, resources, events, plan_history = _run(seed)
    errors = validate_trace_events(events)
    _check(not errors, f"trace conformance: {errors[:3]} ({len(errors)} total)")
    attributions = attribute_lateness(
        result, jobs, events, plan_history=plan_history
    )
    _check(
        len(attributions) == result.late_jobs,
        f"{len(attributions)} attributions for {result.late_jobs} late jobs",
    )
    for a in attributions:
        total = sum(a.components_us.values())
        _check(
            total == a.tardiness_us,
            f"job {a.job_id}: components sum {total} != tardiness "
            f"{a.tardiness_us} us",
        )
        _check(
            all(v >= 0 for v in a.components_us.values()),
            f"job {a.job_id}: negative component {a.components_us}",
        )
    document = render_report(
        result,
        resources=resources,
        events=events,
        attributions=attributions,
        plan_history=plan_history,
        title="forensics smoke report",
    )
    atomic_write_text(out, document)
    with open(out, "r", encoding="utf-8") as fh:
        html = fh.read()
    _check(len(html) > 1000, f"report suspiciously small ({len(html)} bytes)")
    _check("<svg" in html, "report has no inline SVG")
    _check("<script" not in html, "report must not contain scripts")
    _check(
        'src="http' not in html and 'href="http' not in html,
        "report must not reference external resources",
    )
    print(
        f"smoke OK: {len(events)} events conformant, "
        f"{len(attributions)} attributions sum exactly, "
        f"report self-contained ({len(html)} bytes) -> {out}"
    )


def full(out: str, seed: int) -> None:
    """Default mode: run, print the attribution table, write the report."""
    result, jobs, resources, events, plan_history = _run(seed)
    attributions = attribute_lateness(
        result, jobs, events, plan_history=plan_history
    )
    print(
        f"run: {result.jobs_completed}/{result.jobs_arrived} jobs completed, "
        f"{result.late_jobs} late ({result.percent_late:.1f}%), "
        f"{result.failures_injected} failures / "
        f"{result.stragglers_injected} stragglers / "
        f"{result.outages} outages injected"
    )
    if attributions:
        print()
        print(format_attributions(attributions))
        print()
    document = render_report(
        result,
        resources=resources,
        events=events,
        attributions=attributions,
        plan_history=plan_history,
        title=f"MRCP-RM forensics run (seed {seed}, fault-injected)",
    )
    atomic_write_text(out, document)
    print(f"report written to {out} -- open it in any browser")


def main() -> int:
    """Parse arguments and run the selected mode."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="report.html", help="HTML report output path"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="forensics-contract assertions instead of a summary (CI)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke(args.out, args.seed)
    else:
        full(args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
