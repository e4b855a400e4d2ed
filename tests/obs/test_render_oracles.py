"""Byte-identity oracles for the rendered observability artifacts.

Each test renders one artifact from a pinned, seeded run and compares the
sha256 of its bytes with a recorded constant: the run report, the sweep
report, the run-diff report, and the two series JSONL layouts (sim-time and
service-time).  The renderers and samplers may be restructured freely; their
output may not move.  A deliberate output change re-pins the constant here
and says why in the change that makes it.

The last test pins the import graph: importing the planner must not load
the report, diff or forensics modules.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments.runner import build_live_run
from repro.obs.clocks import ManualServiceClock, PinnedClock
from repro.obs.forensics import attribute_lateness
from repro.obs.report import render_report
from repro.obs.timeseries import TelemetryConfig, WallSeriesSampler
from repro.resilience.chaos import default_chaos_config, escalation_ladder

#: sha256 of each artifact's bytes.
RUN_REPORT_SHA = "b27d74c58172f251fdf89550e06e674348c64310f8973233614b37a9d164b572"
SIM_SERIES_SHA = "6447474548204e3a65d798a3020b32a90f9b334e72810206e31e10ddade75851"
SWEEP_REPORT_SHA = "a11e30bcb5fffb5cc4f7ad495cf678fd75aef4de5a615ae56f13e8ae70b4f798"
DIFF_REPORT_SHA = "0cfa176ef3c930db7c07de32a49aefa1246ec3dcf285b443a8558ed8ad06c9ba"
WALL_SERIES_SHA = "ea8f5c9e6e5806427361cb42e4697f078b467b70af3d968ac36a89cd41fbaf2a"


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def chaos_run():
    """A pinned, traced, fault-injected overload run with telemetry on.

    The escalation ladder pushes early plans below ``cp_full``, so the
    degraded-solves SLO fires and resolves; task failures and an outage
    window give the Gantt failed attempts and shading; six jobs are late.
    """
    config = default_chaos_config(
        seed=0, num_jobs=16, faults=True, ladder=escalation_ladder()
    )
    config = replace(
        config,
        synthetic=replace(
            config.synthetic, arrival_rate=config.synthetic.arrival_rate * 10.0
        ),
    )
    config = replace(
        config,
        obs=replace(
            config.obs,
            trace=True,
            plan_history=True,
            telemetry=TelemetryConfig(enabled=True, interval=5.0),
        ),
        mrcp=replace(config.mrcp, record_plan_history=True),
    )
    run = build_live_run(config)
    metrics = run.finish()
    return run, metrics


def test_run_report_bytes(chaos_run):
    run, metrics = chaos_run
    events = list(run.tracer.recorder.events)
    plans = run.manager.plan_history
    attributions = attribute_lateness(metrics, run.jobs, events, plan_history=plans)
    alerts = [alert.as_dict() for alert in run.slo_monitor.alerts]
    assert len(attributions) == 6
    assert [a["state"] for a in alerts] == ["fired", "resolved", "fired"]
    assert metrics.failures_injected and metrics.outages
    # The solver phase profile is raw perf_counter time; fixed values keep
    # its table in the page without making the bytes machine-dependent.
    metrics = replace(
        metrics,
        solver_propagate_time=0.125,
        solver_warm_start_time=0.25,
        solver_tree_time=0.5,
        solver_lns_time=0.0,
    )
    document = render_report(
        metrics,
        resources=run.resources,
        events=events,
        attributions=attributions,
        plan_history=plans,
        series=run.sampler.store.samples,
        alerts=alerts,
        title="oracle run <report>",
    )
    for section in (
        "Live timeline",
        "Cluster Gantt",
        "Utilization",
        "Why were the late jobs late?",
        "Solver: where the overhead O went",
        "Fault injection",
        "Resilience: degradation ladder",
        "Plan history",
    ):
        assert section in document
    assert _sha(document) == RUN_REPORT_SHA


def test_sim_series_jsonl_bytes(chaos_run, tmp_path):
    run, _ = chaos_run
    path = tmp_path / "series.jsonl"
    run.sampler.write_series(str(path))
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == len(run.sampler.store) + 1
    assert _sha(text) == SIM_SERIES_SHA


def test_sweep_report_bytes(tmp_path):
    from repro.experiments.configs import figure_series
    from repro.experiments.pool import SweepSpec, build_sweep_report, run_sweep

    spec = SweepSpec.from_series(
        figure_series("fig7"),
        replications=1,
        root_seed=0,
        deterministic=True,
        capture=True,
    )
    out = tmp_path / "sweep"
    result = run_sweep(spec, workers=1, out_dir=str(out))
    path = build_sweep_report(result, spec, str(out))
    document = open(path, encoding="utf-8").read()
    assert "Per-cell utilization" in document
    assert document.count("<svg") == len(spec.cells())
    assert _sha(document) == SWEEP_REPORT_SHA


def test_diff_report_bytes(tmp_path):
    from repro.obs.diff import capture_run_dir, default_diff_config, diff_runs
    from repro.obs.diffreport import render_diff_report

    base = capture_run_dir(default_diff_config(), str(tmp_path / "a"), label="base")
    perturbed = capture_run_dir(
        default_diff_config(fail_limit=1), str(tmp_path / "b"), label="budget1"
    )
    diff = diff_runs(base, perturbed)
    document = render_diff_report(diff)
    assert diff.verdict == "divergent"
    assert "Series overlays" in document
    assert _sha(document) == DIFF_REPORT_SHA


def test_wall_series_jsonl_bytes(tmp_path):
    from repro.obs.metrics import MetricsRegistry
    from repro.service.admission import AdmissionConfig
    from repro.service.batching import BatchingConfig
    from repro.service.schemas import JobSpec
    from repro.service.server import SchedulerService, ServiceConfig
    from repro.workload.entities import make_uniform_cluster

    registry = MetricsRegistry()
    sampler = WallSeriesSampler(interval=2.0, capacity=8, registry=registry)
    clock = ManualServiceClock()
    svc = SchedulerService(
        resources=make_uniform_cluster(2, 1, 1),
        config=ServiceConfig(
            batching=BatchingConfig(max_batch_size=2, max_hold_seconds=1.0),
            admission=AdmissionConfig(),
        ),
        registry=registry,
        clock=clock,
        wall_clock=PinnedClock(),
        sampler=sampler,
    )
    for i in range(12):
        svc.submit_sync(
            JobSpec(
                job_id=f"j{i}",
                map_durations=(5 + i % 3, 4),
                reduce_durations=(3,),
                deadline=20 + 7 * i,
            )
        )
        clock.advance(0.75)
        svc.pump()
    svc.drain()
    sampler.sample(clock.now(), final=True)
    path = tmp_path / "series.jsonl"
    sampler.write_series(str(path))
    text = path.read_text(encoding="utf-8")
    assert '"axis": "wall"' in text
    assert _sha(text) == WALL_SERIES_SHA


def test_planner_import_leaves_reports_unloaded():
    code = (
        "import sys, repro.core\n"
        "loaded = [m for m in ('repro.obs.report', 'repro.obs.diff', "
        "'repro.obs.forensics') if m in sys.modules]\n"
        "print(','.join(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    assert out == ""
