"""Command-line interface: ``mrcp-rm`` / ``python -m repro``.

Subcommands
-----------
* ``list``  -- available figures and ablations.
* ``run``   -- regenerate one figure's data series, e.g.::

      mrcp-rm run fig2 --profile scaled --replications 3

* ``demo``   -- a ten-second end-to-end open-system demonstration.
* ``faults`` -- the demo run under fault injection (failures, stragglers,
  resource outages), printing the failure-attribution counters.
* ``trace``  -- generate a workload trace file (JSON) for offline use.
* ``report`` -- run a seeded scenario and write a self-contained HTML run
  report (Gantt, utilization, lateness attribution, solver tables).
* ``sweep``  -- run a figure's (configuration x replication) grid over a
  process pool with deterministic fan-out, e.g.::

      mrcp-rm sweep fig7 --workers 4 --replications 3 --out-dir out/

* ``bench``  -- run the pinned behaviour suite and compare its metrics
  exactly against the committed ``BENCH_core.json`` (nonzero exit on drift;
  speed is ``perf/run.py``'s job).
* ``checkpoint`` -- run a seeded scenario with crash-safe checkpoints,
  optionally killing it at a boundary, or restore from a snapshot file::

      mrcp-rm checkpoint --out-dir ckpts --kill-after 2
      mrcp-rm checkpoint --restore ckpts/ckpt-00000040.json

* ``chaos``  -- run the resilience chaos scenarios (kill/restore cycle,
  overload burst through the degradation ladder, pool worker death) and
  exit nonzero if any contract is violated.
* ``telemetry`` -- run a seeded scenario with live telemetry sampling and
  SLO burn-rate alerting, writing an OpenMetrics snapshot, the sampled
  series JSONL and the alert log::

      mrcp-rm telemetry --scenario overload --out-dir out/

* ``diff``   -- capture diffable run directories and explain how two runs
  (or two merged sweeps) diverge: first divergent event, first divergent
  scheduler invocation, per-job delta waterfalls.  Exit 0 = identical,
  1 = divergent, 2 = unreadable input::

      mrcp-rm diff --capture out/a --seed 3
      mrcp-rm diff --capture out/b --seed 3 --fail-limit 1
      mrcp-rm diff out/a out/b --json diff.json --html diff.html
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import (
    PAPER,
    SCALED,
    figure_series,
    format_series,
    list_figures,
)
from repro.experiments.reporting import run_series


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available figures/ablations:")
    for name in list_figures():
        series = figure_series(name, SCALED)
        print(f"  {name:22s} {series.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    series = figure_series(args.figure, args.profile)
    print(f"running {series.figure} [{args.profile} profile] "
          f"({len(series.configs)} configurations x up to "
          f"{args.replications} replications)")
    results = run_series(
        series, replications=args.replications, verbose=not args.quiet
    )
    print()
    print(format_series(series, results))
    return 0


def _make_tracer(args: argparse.Namespace):
    """Build a tracer from a subcommand's ``--trace-out`` (None when unset)."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return None
    from repro.obs import ObsConfig

    return ObsConfig(trace_out=trace_out).make_tracer()


def _write_trace(tracer, args: argparse.Namespace) -> None:
    """Write the captured trace and report the output paths."""
    if tracer is None:
        return
    chrome, jsonl = tracer.write(args.trace_out)
    print(f"  trace written          : {chrome} (+ {jsonl})")


def _print_tardiness(metrics, indent: str = "  ") -> None:
    """Print tardiness severity (mean/p95/max) when any job was late."""
    if not metrics.late_jobs:
        return
    print(
        f"{indent}tardiness mean/p95/max : "
        f"{metrics.mean_tardiness:.1f}/"
        f"{metrics.tardiness_percentile(95):.1f}/"
        f"{metrics.max_tardiness:.1f} s"
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import quick_demo

    tracer = _make_tracer(args)
    metrics = quick_demo(seed=args.seed, tracer=tracer)
    print("quick demo (MRCP-RM on a 4-resource cluster):")
    print(f"  jobs arrived/completed : {metrics.jobs_arrived}/{metrics.jobs_completed}")
    print(f"  late jobs (N)          : {metrics.late_jobs}")
    print(f"  percent late (P)       : {metrics.percent_late:.2f}%")
    print(f"  avg turnaround (T)     : {metrics.avg_turnaround:.1f} s")
    print(f"  avg overhead (O)       : {metrics.avg_sched_overhead * 1000:.2f} ms/job")
    _print_tardiness(metrics)
    _write_trace(tracer, args)
    return 0


def _parse_outage(spec: str):
    """Parse an ``--outage RES:START:DUR`` specification."""
    from repro.faults import OutageWindow

    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"outage spec {spec!r} must be RESOURCE:START:DURATION"
        )
    try:
        return OutageWindow(int(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad outage spec {spec!r}: {exc}")


def _positive_int(text: str) -> int:
    """An argparse ``type``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro import quick_demo
    from repro.faults import FaultModel

    model = FaultModel(
        task_failure_prob=args.failure_prob,
        straggler_prob=args.straggler_prob,
        straggler_factor=args.straggler_factor,
        outages=tuple(args.outage or ()),
        seed=args.seed,
    )
    tracer = _make_tracer(args)
    metrics = quick_demo(
        seed=args.seed, num_jobs=args.jobs, faults=model, tracer=tracer
    )
    print("fault-injected demo (MRCP-RM on a 4-resource cluster):")
    print(f"  jobs arrived/completed/failed : "
          f"{metrics.jobs_arrived}/{metrics.jobs_completed}/{metrics.jobs_failed}")
    print(f"  late jobs (N)                 : {metrics.late_jobs}")
    print(f"  percent late (P)              : {metrics.percent_late:.2f}%")
    print(f"  avg turnaround (T)            : {metrics.avg_turnaround:.1f} s")
    print(f"  task failures injected        : {metrics.failures_injected}")
    print(f"  tasks killed by outages       : {metrics.tasks_killed}")
    print(f"  stragglers injected           : {metrics.stragglers_injected}")
    print(f"  outages                       : {metrics.outages}")
    print(f"  retries                       : {metrics.retries}")
    print(f"  replans on failure            : {metrics.replans_on_failure}")
    print(f"  fallback solves               : {metrics.fallback_solves}")
    _print_tardiness(metrics)
    _write_trace(tracer, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.configs import (
        default_facebook_params,
        default_synthetic_params,
        default_workflow_params,
    )
    from repro.sim import RandomStreams
    from repro.workload import (
        generate_facebook_workload,
        generate_synthetic_workload,
        generate_workflow_workload,
        save_trace,
    )
    from repro.workload.traces import save_workflow_trace

    streams = RandomStreams(args.seed)
    if args.workload == "facebook":
        jobs = generate_facebook_workload(
            default_facebook_params(args.profile), streams=streams
        )
        save_trace(jobs, args.output)
    elif args.workload == "workflow":
        jobs = generate_workflow_workload(
            default_workflow_params(args.profile), streams=streams
        )
        save_workflow_trace(jobs, args.output)
    else:
        jobs = generate_synthetic_workload(
            default_synthetic_params(args.profile), streams=streams
        )
        save_trace(jobs, args.output)
    total_tasks = sum(len(j.tasks) for j in jobs)
    print(f"wrote {len(jobs)} jobs / {total_tasks} tasks to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core import MrcpRm, MrcpRmConfig
    from repro.cp.solver import SolverParams
    from repro.ioutil import atomic_write_text
    from repro.metrics import MetricsCollector
    from repro.obs import ObsConfig
    from repro.obs.forensics import attribute_lateness, format_attributions
    from repro.obs.report import render_report
    from repro.obs.slo import SloMonitor, default_slos
    from repro.obs.timeseries import TelemetryConfig, TimeSeriesSampler
    from repro.sim import RandomStreams, Simulator
    from repro.workload import (
        SyntheticWorkloadParams,
        generate_synthetic_workload,
        make_uniform_cluster,
    )

    params = SyntheticWorkloadParams(
        num_jobs=args.jobs,
        total_map_slots=8,
        total_reduce_slots=8,
        deadline_multiplier_max=1.4,
        scale=0.1,
    )
    jobs = generate_synthetic_workload(params, streams=RandomStreams(args.seed))
    resources = make_uniform_cluster(4, 2, 2)
    sim = Simulator()
    metrics = MetricsCollector()
    tracer = ObsConfig(trace=True, plan_history=True).make_tracer()
    tracer.bind_sim_clock(lambda: sim.now)
    sim.attach_observability(tracer.registry)
    faults = None
    if args.faults:
        from repro.faults import FaultModel

        faults = FaultModel(
            task_failure_prob=0.15,
            straggler_prob=0.2,
            straggler_factor=2.0,
            outage_rate=0.002,
            outage_duration_range=(30.0, 90.0),
            outage_horizon=2000.0,
            seed=args.seed,
        )
    config = MrcpRmConfig(
        faults=faults,
        record_plan_history=True,
        solver=SolverParams(time_limit=0.5, tree_fail_limit=200, use_lns=False),
    )
    manager = MrcpRm(sim, resources, config, metrics, tracer=tracer)
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    # Live telemetry rides along so the report gets its timeline strips.
    sampler = TimeSeriesSampler(TelemetryConfig(enabled=True, interval=5.0))
    sampler.attach(sim, collector=metrics, registry=tracer.registry)
    manager.attach_telemetry(sampler)
    monitor = SloMonitor(default_slos(), tracer=tracer)
    monitor.subscribe(sampler)
    sampler.start()
    sim.run()
    manager.executor.assert_quiescent()
    sampler.finalize()
    result = metrics.finalize()
    events = tracer.recorder.events
    attributions = attribute_lateness(
        result, jobs, events, plan_history=manager.plan_history
    )
    title = (
        f"MRCP-RM run report (seed {args.seed}, {args.jobs} jobs"
        f"{', fault-injected' if args.faults else ''})"
    )
    document = render_report(
        result,
        resources=resources,
        events=events,
        attributions=attributions,
        plan_history=manager.plan_history,
        series=sampler.store.samples,
        alerts=[alert.as_dict() for alert in monitor.alerts],
        title=title,
    )
    atomic_write_text(args.out, document)
    print(f"run: {result.jobs_completed}/{result.jobs_arrived} jobs completed, "
          f"{result.late_jobs} late ({result.percent_late:.1f}%)")
    _print_tardiness(metrics=result)
    if attributions:
        print(format_attributions(attributions))
    print(f"report written: {args.out}")
    if args.trace_out is not None:
        chrome, jsonl = tracer.write(args.trace_out)
        print(f"trace written : {chrome} (+ {jsonl})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench_command

    return run_bench_command(args)


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import default_chaos_config
    from repro.resilience.checkpoint import (
        CheckpointConfig,
        restore_run,
        run_with_checkpoints,
    )

    config = default_chaos_config(seed=args.seed, faults=not args.no_faults)
    if args.restore is not None:
        metrics = restore_run(config, args.restore, replication=args.replication)
        print(f"restored from {args.restore} and ran to completion:")
        print(f"  jobs arrived/completed : "
              f"{metrics.jobs_arrived}/{metrics.jobs_completed}")
        print(f"  O/N/T/P                : {metrics.avg_sched_overhead:.4g} / "
              f"{metrics.late_jobs} / {metrics.avg_turnaround:.1f} / "
              f"{metrics.percent_late:.2f}")
        return 0

    ckpt = CheckpointConfig(
        every_events=args.every_events,
        out_dir=args.out_dir,
        keep=args.keep,
    )
    run = run_with_checkpoints(
        config,
        ckpt,
        replication=args.replication,
        kill_after_checkpoints=args.kill_after,
    )
    print(f"checkpoints written    : {len(run.snapshots)}")
    for path in run.paths:
        print(f"  {path}")
    if run.killed:
        print("run killed at the last checkpoint boundary (restore with "
              "`mrcp-rm checkpoint --restore <snapshot>`)")
    else:
        metrics = run.metrics
        print(f"run drained normally   : "
              f"{metrics.jobs_arrived}/{metrics.jobs_completed} jobs, "
              f"{metrics.late_jobs} late")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.resilience import chaos

    scenarios = {
        "kill-restore": lambda d: chaos.kill_restore_cycle(
            out_dir=os.path.join(d, "checkpoints")
        ),
        "overload": lambda d: chaos.overload_burst(),
        "worker-death": lambda d: chaos.pool_worker_death(
            os.path.join(d, "sweeps")
        ),
    }
    selected = (
        list(scenarios) if args.scenario == "all" else [args.scenario]
    )

    def run_selected(out_dir: str) -> int:
        failures = 0
        for name in selected:
            report = scenarios[name](out_dir)
            print(report.summary())
            print()
            failures += 0 if report.passed else 1
        if failures:
            print(f"{failures} chaos scenario(s) FAILED", file=sys.stderr)
            return 1
        print(f"all {len(selected)} chaos scenario(s) passed")
        return 0

    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        return run_selected(args.out_dir)
    with tempfile.TemporaryDirectory(prefix="mrcp-chaos-") as tmp:
        return run_selected(tmp)


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.runner import build_live_run
    from repro.obs.export import (
        render_openmetrics,
        render_series_openmetrics,
        write_openmetrics,
    )
    from repro.obs.timeseries import TelemetryConfig
    from repro.resilience.chaos import default_chaos_config, escalation_ladder

    os.makedirs(args.out_dir, exist_ok=True)
    series_path = os.path.join(args.out_dir, "series.jsonl")
    alerts_path = os.path.join(args.out_dir, "alerts.jsonl")
    prom_path = os.path.join(args.out_dir, "telemetry.prom")

    if args.scenario == "overload":
        # The overload-burst chaos scenario: a 10x arrival spike with the
        # CP rungs injected to fail, so early plans land on the greedy
        # rung and the degraded-solves SLO deterministically fires.
        config = default_chaos_config(
            seed=args.seed, faults=False, ladder=escalation_ladder()
        )
        config = replace(
            config,
            synthetic=replace(
                config.synthetic,
                arrival_rate=config.synthetic.arrival_rate * 10.0,
            ),
        )
    else:
        config = default_chaos_config(seed=args.seed, faults=False)
    telemetry = TelemetryConfig(
        enabled=True,
        interval=args.interval,
        series_out=series_path,
        alerts_out=alerts_path,
    )
    config = replace(config, obs=replace(config.obs, telemetry=telemetry))

    run = build_live_run(config)
    metrics = run.finish()

    registry_text = render_openmetrics(run.tracer.registry)
    series_text = render_series_openmetrics(run.sampler.store.samples)
    combined = registry_text[: -len("# EOF\n")] + series_text
    try:
        write_openmetrics(prom_path, combined)
    except ValueError as exc:
        print(f"OpenMetrics validation FAILED: {exc}", file=sys.stderr)
        return 1

    alerts = run.slo_monitor.fired if run.slo_monitor is not None else []
    print(f"telemetry run ({args.scenario}, seed {args.seed}):")
    print(f"  jobs arrived/completed : "
          f"{metrics.jobs_arrived}/{metrics.jobs_completed}")
    print(f"  O/N/T/P                : {metrics.avg_sched_overhead:.4g} / "
          f"{metrics.late_jobs} / {metrics.avg_turnaround:.1f} / "
          f"{metrics.percent_late:.2f}")
    print(f"  samples                : {len(run.sampler.store)} "
          f"(every {args.interval:g}s of sim time)")
    print(f"  SLO alerts fired       : {len(alerts)}")
    for alert in alerts:
        print(f"  SLO ALERT fired name={alert.name} kind={alert.kind} "
              f"t={alert.sim_time:g} burn_long={alert.burn_long:.2f} "
              f"burn_short={alert.burn_short:.2f}")
    print(f"  openmetrics            : {prom_path} (validated)")
    print(f"  series                 : {series_path}")
    print(f"  alerts                 : {alerts_path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        DiffError,
        capture_run_dir,
        default_diff_config,
        diff_run_dirs,
        diff_sweeps,
        format_run_diff,
        format_sweep_diff,
    )
    from repro.ioutil import atomic_write_json, atomic_write_text

    if args.capture is not None:
        config = default_diff_config(
            seed=args.seed, fail_limit=args.fail_limit
        )
        artifacts = capture_run_dir(
            config,
            args.capture,
            label=args.label or os.path.basename(args.capture.rstrip("/")),
        )
        print(f"captured run directory : {artifacts.path}")
        print(f"  label                : {artifacts.label}")
        print(f"  seed                 : {config.seed}")
        print(f"  events               : {len(artifacts.events)}")
        print(f"  scheduler invocations: {len(artifacts.plans)}")
        return 0

    if args.a is None or args.b is None:
        print("diff needs two inputs (or --capture DIR)", file=sys.stderr)
        return 2
    try:
        if args.a.endswith(".json") or args.b.endswith(".json"):
            doc = diff_sweeps(args.a, args.b)
            if not args.quiet:
                print(format_sweep_diff(doc))
            if args.html is not None:
                print(
                    "--html applies to run-directory diffs only; ignoring",
                    file=sys.stderr,
                )
        else:
            diff = diff_run_dirs(args.a, args.b)
            doc = diff.to_json_dict()
            if not args.quiet:
                print(format_run_diff(diff))
            if args.html is not None:
                from repro.obs.diffreport import render_diff_report

                atomic_write_text(args.html, render_diff_report(diff))
                print(f"diff report written: {args.html}")
    except DiffError as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        atomic_write_json(args.json, doc)
        print(f"diff.json written  : {args.json}")
    return 0 if doc["verdict"] == "identical" else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.timeseries import WallSeriesSampler
    from repro.service.admission import AdmissionConfig
    from repro.service.batching import BatchingConfig
    from repro.service.server import SchedulerService, ServiceConfig
    from repro.workload import make_uniform_cluster

    config = ServiceConfig(
        batching=BatchingConfig(
            max_batch_size=args.max_batch_size,
            max_hold_seconds=args.max_hold,
            max_pending=args.max_pending,
            overload_queue_depth=args.overload_depth,
        ),
        admission=AdmissionConfig(),
        host=args.host,
        port=args.port,
    )
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    sampler = None
    if args.series_out is not None:
        sampler = WallSeriesSampler(
            interval=args.series_interval, registry=registry
        )
    service = SchedulerService(
        resources=make_uniform_cluster(args.resources),
        config=config,
        registry=registry,
        sampler=sampler,
    )
    try:
        asyncio.run(service.serve())
    except KeyboardInterrupt:
        pass
    if sampler is not None and args.series_out is not None:
        sampler.sample(service.clock.now(), final=True)
        print(f"series written: {sampler.write_series(args.series_out)}")
    print("service shut down cleanly")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.batching import BatchingConfig
    from repro.service.loadgen import (
        LoadProfile,
        run_against_url,
        run_inprocess,
    )
    from repro.service.server import ServiceConfig

    profile = LoadProfile(
        requests=args.requests,
        seed=args.seed,
        arrival_rate=args.arrival_rate,
    )
    if args.url is not None:
        import asyncio

        report = asyncio.run(
            run_against_url(args.url, profile, time_scale=args.time_scale)
        )
        mode = f"against {args.url}"
    else:
        config = ServiceConfig(
            batching=BatchingConfig(
                max_batch_size=args.max_batch_size,
                max_hold_seconds=args.max_hold,
            )
        )
        report = run_inprocess(profile, config=config)
        mode = "in-process (deterministic)"
    print(f"loadtest {mode}: {report.requests} requests, seed {args.seed}")
    print(f"  admitted / rejected / shed : "
          f"{report.admitted} / {report.rejected} / {report.shed}")
    print(f"  verdict digest             : {report.digest}")
    print(f"  admission latency p50/p99  : "
          f"{report.latency_p50 * 1000:.2f} / {report.latency_p99 * 1000:.2f} ms"
          f" (max {report.latency_max * 1000:.2f} ms)")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(
                report.as_dict(include_quotes=args.quotes), fh,
                indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"  report written             : {args.json}")
    if report.requests == 0:
        print("loadtest FAILED: no responses collected", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.pool import (
        SweepSpec,
        build_sweep_report,
        run_sweep,
    )

    series = figure_series(args.figure, args.profile)
    spec = SweepSpec.from_series(
        series,
        replications=args.replications,
        root_seed=args.seed,
        deterministic=not args.wall_clock,
        capture=args.capture,
        telemetry=args.telemetry,
    )
    cells = spec.cells()
    print(
        f"sweeping {series.figure} [{args.profile} profile]: "
        f"{len(series.configs)} configurations x {args.replications} "
        f"replications = {len(cells)} cells over {args.workers} worker(s)"
    )

    def progress(outcome) -> None:
        if args.quiet:
            return
        mark = "ok" if outcome.status == "ok" else "FAILED"
        detail = f" ({outcome.error})" if outcome.error else ""
        print(
            f"  [{outcome.index + 1:3d}/{len(cells)}] {outcome.label} "
            f"rep {outcome.replication}: {mark}{detail}"
        )

    result = run_sweep(
        spec,
        workers=args.workers,
        retries=args.retries,
        out_dir=args.out_dir,
        resume=args.resume,
        progress=progress,
    )

    print()
    print(f"sweep {result.name} ({series.factor}):")
    width = max(len(label) for label in result.summary())
    for label, stats in result.summary().items():
        line = f"  {label:{width}s}  ok {int(stats['ok'])}/{int(stats['cells'])}"
        if "O" in stats:
            line += (
                f"  O={stats['O'] * 1000:.2f}ms N={stats['N']:.2f} "
                f"T={stats['T']:.1f}s P={stats['P']:.2f}%"
            )
        print(line)
    print(f"  wall {result.wall:.2f}s over {result.workers} worker(s)")
    if args.out_dir is not None:
        print(f"  artifacts: {args.out_dir}/sweep.json, sweep.csv")
        if args.telemetry:
            print(f"  telemetry: {args.out_dir}/sweep.series.jsonl")
        if args.report:
            path = build_sweep_report(result, spec, args.out_dir)
            print(f"  report   : {path}")
    if result.failed_cells:
        print(f"  {len(result.failed_cells)} cell(s) FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="mrcp-rm",
        description="MRCP-RM (ICPP 2014) reproduction toolkit",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="install the structured repro.* log handler at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figures").set_defaults(
        func=_cmd_list
    )

    run_p = sub.add_parser("run", help="regenerate one figure's data")
    run_p.add_argument("figure", choices=list_figures())
    run_p.add_argument(
        "--profile", choices=(SCALED, PAPER), default=SCALED,
        help="scaled = laptop-sized (default); paper = original Table 3/4",
    )
    run_p.add_argument("--replications", type=_positive_int, default=3)
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    demo_p = sub.add_parser("demo", help="ten-second end-to-end demo")
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (+ .jsonl log) of the run",
    )
    demo_p.set_defaults(func=_cmd_demo)

    faults_p = sub.add_parser(
        "faults", help="end-to-end demo under fault injection"
    )
    faults_p.add_argument("--seed", type=int, default=0)
    faults_p.add_argument("--jobs", type=int, default=10)
    faults_p.add_argument(
        "--failure-prob", type=float, default=0.15,
        help="per-attempt probability of a mid-execution task failure",
    )
    faults_p.add_argument(
        "--straggler-prob", type=float, default=0.1,
        help="per-attempt probability of a straggler slowdown",
    )
    faults_p.add_argument(
        "--straggler-factor", type=float, default=2.5,
        help="duration multiplier applied to straggler attempts",
    )
    faults_p.add_argument(
        "--outage", type=_parse_outage, action="append", metavar="RES:START:DUR",
        help="deterministic resource outage window (repeatable)",
    )
    faults_p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (+ .jsonl log) of the run",
    )
    faults_p.set_defaults(func=_cmd_faults)

    trace_p = sub.add_parser("trace", help="write a workload trace (JSON)")
    trace_p.add_argument("output")
    trace_p.add_argument(
        "--workload",
        choices=("synthetic", "facebook", "workflow"),
        default="synthetic",
    )
    trace_p.add_argument("--profile", choices=(SCALED, PAPER), default=SCALED)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.set_defaults(func=_cmd_trace)

    report_p = sub.add_parser(
        "report", help="write a self-contained HTML run report"
    )
    report_p.add_argument(
        "--out", default="report.html", help="output HTML path"
    )
    report_p.add_argument("--seed", type=int, default=42)
    report_p.add_argument("--jobs", type=int, default=14)
    report_p.add_argument(
        "--faults", action="store_true",
        help="inject failures/stragglers/outages into the reported run",
    )
    report_p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write the run's Chrome trace-event JSON",
    )
    report_p.set_defaults(func=_cmd_report)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a figure's (configuration x replication) grid in parallel",
    )
    sweep_p.add_argument("figure", choices=list_figures())
    sweep_p.add_argument(
        "--profile", choices=(SCALED, PAPER), default=SCALED,
        help="scaled = laptop-sized (default); paper = original Table 3/4",
    )
    sweep_p.add_argument("--replications", type=_positive_int, default=3)
    sweep_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = sequential reference run)",
    )
    sweep_p.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failed cell before it is marked failed",
    )
    sweep_p.add_argument("--seed", type=int, default=0, help="root seed")
    sweep_p.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write per-cell files and merged sweep.json/sweep.csv here",
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help="reuse finished cell files already present in --out-dir",
    )
    sweep_p.add_argument(
        "--capture", action="store_true",
        help="have each worker write its cell's Chrome trace (needs --out-dir)",
    )
    sweep_p.add_argument(
        "--telemetry", action="store_true",
        help="sample live telemetry per cell and merge the fleet rollup "
        "into sweep.series.jsonl (needs --out-dir)",
    )
    sweep_p.add_argument(
        "--report", action="store_true",
        help="render an HTML sweep report into --out-dir",
    )
    sweep_p.add_argument(
        "--wall-clock", action="store_true",
        help="measure real scheduling overhead instead of the pinned "
        "deterministic clock (merged output no longer byte-stable)",
    )
    sweep_p.add_argument("--quiet", action="store_true")
    sweep_p.set_defaults(func=_cmd_sweep)

    from repro.bench import add_bench_arguments

    bench_p = sub.add_parser(
        "bench",
        help="run the behaviour pins against the committed baseline",
    )
    add_bench_arguments(bench_p)
    bench_p.set_defaults(func=_cmd_bench)

    ckpt_p = sub.add_parser(
        "checkpoint",
        help="run a seeded scenario with crash-safe checkpoints / restore one",
    )
    ckpt_p.add_argument("--seed", type=int, default=0)
    ckpt_p.add_argument("--replication", type=int, default=0)
    ckpt_p.add_argument(
        "--every-events", type=int, default=20,
        help="checkpoint cadence in dispatched simulator events",
    )
    ckpt_p.add_argument(
        "--out-dir", default="checkpoints", metavar="DIR",
        help="directory for ckpt-*.json snapshot files",
    )
    ckpt_p.add_argument(
        "--keep", type=int, default=None,
        help="retain only the newest N snapshots on disk",
    )
    ckpt_p.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="stop the run dead after its Nth checkpoint (crash drill)",
    )
    ckpt_p.add_argument(
        "--restore", default=None, metavar="SNAPSHOT",
        help="restore from a snapshot file and run to completion",
    )
    ckpt_p.add_argument(
        "--no-faults", action="store_true",
        help="disable the scenario's fault injection",
    )
    ckpt_p.set_defaults(func=_cmd_checkpoint)

    chaos_p = sub.add_parser(
        "chaos",
        help="run the resilience chaos scenarios (nonzero exit on violation)",
    )
    chaos_p.add_argument(
        "--scenario",
        choices=("all", "kill-restore", "overload", "worker-death"),
        default="all",
    )
    chaos_p.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="keep scenario artifacts here (default: temp dir, discarded)",
    )
    chaos_p.set_defaults(func=_cmd_chaos)

    telemetry_p = sub.add_parser(
        "telemetry",
        help="run a seeded scenario with live telemetry + SLO alerting",
    )
    telemetry_p.add_argument(
        "--scenario", choices=("overload", "steady"), default="overload",
        help="overload = 10x arrival burst through the degradation ladder "
        "(deterministically fires the degraded-solves SLO); steady = the "
        "same workload at its normal rate",
    )
    telemetry_p.add_argument("--seed", type=int, default=0)
    telemetry_p.add_argument(
        "--interval", type=float, default=5.0,
        help="sampling cadence in seconds of simulated time",
    )
    telemetry_p.add_argument(
        "--out-dir", default="telemetry", metavar="DIR",
        help="directory for telemetry.prom, series.jsonl and alerts.jsonl",
    )
    telemetry_p.set_defaults(func=_cmd_telemetry)

    serve_p = sub.add_parser(
        "serve",
        help="run the admission-control HTTP service (stdlib asyncio)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8351,
        help="listening port (0 = pick a free one, printed at startup)",
    )
    serve_p.add_argument(
        "--resources", type=int, default=4,
        help="uniform cluster size (2 map + 2 reduce slots each)",
    )
    serve_p.add_argument(
        "--max-batch-size", type=int, default=8,
        help="arrivals coalesced into one planning pass",
    )
    serve_p.add_argument(
        "--max-hold", type=float, default=0.05, metavar="SECONDS",
        help="longest a submission is held before its batch is planned",
    )
    serve_p.add_argument(
        "--max-pending", type=int, default=256,
        help="queue ceiling; submissions above it are shed",
    )
    serve_p.add_argument(
        "--overload-depth", type=int, default=32,
        help="queue depth at which quotes start at the cp_limited rung",
    )
    serve_p.add_argument(
        "--series-out", default=None, metavar="PATH",
        help="write a wall-clock telemetry series JSONL on shutdown",
    )
    serve_p.add_argument(
        "--series-interval", type=float, default=1.0,
        help="wall-clock sampling cadence in seconds",
    )
    serve_p.set_defaults(func=_cmd_serve)

    loadtest_p = sub.add_parser(
        "loadtest",
        help="drive the admission service with a seeded request stream",
    )
    loadtest_p.add_argument(
        "--url", default=None, metavar="URL",
        help="target a live endpoint (default: deterministic in-process run)",
    )
    loadtest_p.add_argument("--requests", type=int, default=200)
    loadtest_p.add_argument("--seed", type=int, default=0)
    loadtest_p.add_argument(
        "--arrival-rate", type=float, default=0.5,
        help="mean arrivals per service-time second",
    )
    loadtest_p.add_argument(
        "--time-scale", type=float, default=0.02,
        help="wall seconds per service second in --url mode "
        "(compresses the stream)",
    )
    loadtest_p.add_argument(
        "--max-batch-size", type=int, default=8,
        help="in-process mode: arrivals coalesced per planning pass",
    )
    loadtest_p.add_argument(
        "--max-hold", type=float, default=0.05, metavar="SECONDS",
        help="in-process mode: longest hold before a batch is planned",
    )
    loadtest_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable load report here",
    )
    loadtest_p.add_argument(
        "--quotes", action="store_true",
        help="include every individual quote in the --json report",
    )
    loadtest_p.set_defaults(func=_cmd_loadtest)

    diff_p = sub.add_parser(
        "diff",
        help="diff two captured runs or sweeps (exit 0 identical, "
        "1 divergent, 2 error)",
    )
    diff_p.add_argument(
        "a", nargs="?", default=None,
        help="run directory (or sweep.json) A",
    )
    diff_p.add_argument(
        "b", nargs="?", default=None,
        help="run directory (or sweep.json) B",
    )
    diff_p.add_argument(
        "--capture", default=None, metavar="DIR",
        help="instead of diffing, capture a diffable run directory here",
    )
    diff_p.add_argument(
        "--seed", type=int, default=3,
        help="scenario seed for --capture (default: the canonical drill)",
    )
    diff_p.add_argument(
        "--fail-limit", type=int, default=None,
        help="solver tree-search fail limit for --capture (the canonical "
        "perturbation knob; default 200)",
    )
    diff_p.add_argument(
        "--label", default=None,
        help="label stored in the captured run directory",
    )
    diff_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable repro-diff/1 document here",
    )
    diff_p.add_argument(
        "--html", default=None, metavar="PATH",
        help="write the self-contained HTML diff report here (run diffs)",
    )
    diff_p.add_argument("--quiet", action="store_true")
    diff_p.set_defaults(func=_cmd_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
