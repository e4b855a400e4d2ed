#!/usr/bin/env python
"""Capture an end-to-end trace of one MRCP-RM run.

Runs the synthetic Table 3 workload (scaled profile, default factor levels)
under MRCP-RM with tracing enabled and writes a Chrome trace-event JSON --
load it at https://ui.perfetto.dev or ``chrome://tracing`` -- plus a
``.jsonl`` event log alongside.  See docs/OBSERVABILITY.md for how to read
the two timelines.

Run:  PYTHONPATH=src python examples/trace_run.py --out trace.json

``--smoke`` switches to a seconds-long workload and, instead of a pretty
summary, *checks* the observability contract: the traced run's O/N/T/P must
equal an untraced same-seed run's (both use an injected constant wall clock
so O is deterministically 0), and the trace must be valid non-empty JSON
with one span per scheduler invocation and all four CP solver phase spans.
Exits non-zero on any violation (used as the CI trace-smoke job).
"""

import argparse
import json
import sys

from repro.experiments.configs import (
    SCALED,
    default_synthetic_params,
    default_synthetic_system,
)
from repro.experiments.runner import RunConfig, SystemConfig, run_once
from repro.obs import ObsConfig
from repro.workload import SyntheticWorkloadParams

#: CP solver phase spans that must appear in every MRCP-RM trace.
PHASES = ("cp.propagate", "cp.warm_start", "cp.search", "cp.lns")


def _smoke_workload() -> SyntheticWorkloadParams:
    """A seconds-long shrink of the Table 3 workload for CI.

    Overloaded on purpose (no advance reservations, tight deadlines, fast
    arrivals): a lightly loaded run is answered by the direct warm start
    without a CP model, and then no solver phase span is emitted at all.
    """
    return SyntheticWorkloadParams(
        num_jobs=8,
        map_tasks_range=(2, 6),
        reduce_tasks_range=(1, 3),
        e_max=10,
        ar_probability=0.0,
        s_max=200,
        deadline_multiplier_max=1.2,
        arrival_rate=0.5,
    )


def _check(ok: bool, message: str) -> None:
    """Print and exit non-zero when a smoke assertion fails."""
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def smoke(out: str, seed: int) -> None:
    """CI mode: assert the traced run is metric-identical and trace is sane."""
    clock = lambda: 0.0  # noqa: E731 -- constant clock pins O to 0 exactly
    workload = _smoke_workload()
    untraced = RunConfig(
        workload="synthetic",
        synthetic=workload,
        system=SystemConfig(num_resources=4),
        obs=ObsConfig(wall_clock=clock),
        seed=seed,
    )
    traced = RunConfig(
        workload="synthetic",
        synthetic=workload,
        system=SystemConfig(num_resources=4),
        obs=ObsConfig(trace_out=out, wall_clock=clock),
        seed=seed,
    )
    m0 = run_once(untraced)
    m1 = run_once(traced)
    _check(
        m0.as_dict() == m1.as_dict(),
        f"traced metrics {m1.as_dict()} != untraced {m0.as_dict()}",
    )
    with open(out, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", [])
    _check(bool(events), "trace file has no events")
    names = [e["name"] for e in events]
    invocations = names.count("scheduler.invocation")
    _check(invocations >= 1, "no scheduler.invocation spans in trace")
    _check(
        invocations == m1.scheduler_invocations,
        f"{invocations} invocation spans vs "
        f"{m1.scheduler_invocations} recorded invocations",
    )
    for phase in PHASES:
        _check(phase in names, f"missing solver phase span {phase}")
    print(
        f"smoke OK: {len(events)} events, {invocations} invocations, "
        f"O/N/T/P identical with tracing on ({m1.as_dict()})"
    )


def full(out: str, seed: int) -> None:
    """Default mode: trace the scaled Table 3 workload, print a summary."""
    config = RunConfig(
        workload="synthetic",
        synthetic=default_synthetic_params(SCALED),
        system=default_synthetic_system(SCALED),
        obs=ObsConfig(trace_out=out),
        seed=seed,
    )
    metrics = run_once(config)
    jsonl = out[: -len(".json")] + ".jsonl" if out.endswith(".json") else out + ".jsonl"
    print(f"trace written to {out} (events) and {jsonl} (JSONL log)")
    print(f"  jobs                : {metrics.jobs_completed}/{metrics.jobs_arrived}")
    print(f"  O/N/T/P             : {metrics.as_dict()}")
    print(f"  invocations         : {metrics.scheduler_invocations}")
    print(f"  solves by phase     : {metrics.solves_by_phase}")
    print(f"  warm-start time (s) : {metrics.solver_warm_start_time:.4f}")
    print(f"  propagation time (s): {metrics.solver_propagate_time:.4f}")
    top = sorted(
        metrics.solver_propagators.items(),
        key=lambda kv: kv[1]["runs"],
        reverse=True,
    )[:3]
    for name, counts in top:
        print(
            f"  {name:28s}: {counts['runs']} runs, "
            f"{counts['prunes']} prunes, {counts['fails']} fails"
        )
    print("load the trace at https://ui.perfetto.dev")


def main() -> int:
    """Parse arguments and run the selected mode."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="trace_run.json", help="Chrome trace output path"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload + observability-contract assertions (CI)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke(args.out, args.seed)
    else:
        full(args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
