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

#: sha256 of each artifact's bytes.  A solve the warm start closes without a
#: model records no ``cp.*`` phase spans, so every artifact of a traced run
#: that carries those spans or the pinned-clock O (which counts clock reads)
#: moved when that path landed; N/T/P, plans and verdicts did not.  The two
#: sweep artifacts moved when sweep cells took the one seeding rule (root
#: seed, replication): only the cells' seeds and those seeds' metrics moved.
#: The wall series pins the sampler's layout with each sample's ``counters``
#: projected onto :data:`WALL_SERIES_COUNTERS`, the ``service.*`` keys the
#: test drives, so a counter added elsewhere on the service's path does not
#: move it.
RUN_REPORT_SHA = "d5151d7299e10bbaffa63e9aa7445392d0699ea06f395d18aea5df3b99c2685f"
SIM_SERIES_SHA = "b718ab0991999e4155ba3ea3a92265c0c9d7a9c0a0249ae8fdaf53600c07d74c"
SWEEP_REPORT_SHA = "e80de58f6a7ec20fccb053efa5e0f349d82e057de1b832d2441a0bc8b7372e2a"
DIFF_REPORT_SHA = "26f409b0cfbefe8a2d55b6ccbd4a958a7f0b3d27e22acef2be1b0aa20d6f8cea"
WALL_SERIES_SHA = "ea8f5c9e6e5806427361cb42e4697f078b467b70af3d968ac36a89cd41fbaf2a"
ALERTS_SHA = "179426777c9003f05e41c2e98f2bd42e02f80d5b22be297b831900df1f87c2dc"
SWEEP_SERIES_SHA = "097371c488f3d09e92288bf0aab7d406df049e540dc416f7fd99f7cfa5b05f6f"
#: The run directory ``capture_run_dir(default_diff_config(num_jobs=6))``
#: writes; captured under a relative path, because the config fingerprint in
#: ``run.json`` covers the trace output path.  ``run.json`` last moved when
#: ``RunConfig.faults`` left the config: ``structural_diff`` of the two
#: files is ``fingerprint: 1bee782ff14dca7b -> 99cc77bb79e9d11e`` alone.
CAPTURE_SHAS = {
    "forensics.json": "32550a027fd86cda9775d993c7b8af51b7026fd87a41827571311e16641cc4db",
    "plans.json": "f43ee963385b7febb9c206382b32cb8df1ef6c2544cf4751d5c35ef922d7dea8",
    "run.json": "422869a8a6b48b55b8efe1dcd4f6ef053db1220b84d9b87496f11ca26ec40f74",
    "series.jsonl": "74a17f19eaad4418ca579c588959d80c435a56d0d6a9ff4958c3e31f7feec1d6",
    "trace.json": "7eb1cdadb4243e1d76cb18a90fff6161f9f093412c4414b1017f97025af0c374",
    "trace.jsonl": "967d2cd797bfb3a60297f2b2d577f4baa4fffa9c7f77e50ab60a54277db5d4e2",
}

#: The ``service.*`` registry keys the wall-series hash covers.
WALL_SERIES_COUNTERS = (
    "service.admitted",
    "service.batches",
    "service.committed_jobs",
    "service.pending",
    "service.rejected",
    "service.requests",
    "service.shed",
)
#: Ladder counters the wall-series run leaves at zero; asserted, not hashed.
LADDER_ZERO_COUNTERS = (
    "resilience.breaker_opened",
    "resilience.rung_used.cp_limited",
    "resilience.rung_used.edf",
    "resilience.rung_used.greedy",
)


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


def test_alerts_jsonl_bytes(chaos_run, tmp_path):
    run, _ = chaos_run
    path = tmp_path / "alerts.jsonl"
    run.slo_monitor.write_alerts(str(path))
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == len(run.slo_monitor.alerts) == 3
    assert _sha(text) == ALERTS_SHA


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


def test_sweep_series_jsonl_bytes(tmp_path):
    from repro.experiments.configs import figure_series
    from repro.experiments.pool import SweepSpec, run_sweep

    spec = SweepSpec.from_series(
        figure_series("fig7"),
        replications=1,
        root_seed=0,
        deterministic=True,
        telemetry=True,
    )
    out = tmp_path / "sweep"
    run_sweep(spec, workers=1, out_dir=str(out))
    text = (out / "sweep.series.jsonl").read_text(encoding="utf-8")
    assert text.count("\n") == len(spec.cells()) + 1
    assert _sha(text) == SWEEP_SERIES_SHA


def test_capture_run_dir_bytes(tmp_path, monkeypatch):
    from repro.obs.diff import capture_run_dir, default_diff_config

    monkeypatch.chdir(tmp_path)
    capture_run_dir(default_diff_config(num_jobs=6), "run", label="pin")
    shas = {
        name: _sha((tmp_path / "run" / name).read_text(encoding="utf-8"))
        for name in sorted(CAPTURE_SHAS)
    }
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(shas)
    assert shas == CAPTURE_SHAS


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
    samples = sampler.store.samples
    # The ladder's counters share the registry; their values here are pinned
    # below, not by the hash (their accounting is pinned on a chaos stream in
    # tests/service/test_quote_ladder_pin.py).
    rungs = [s["counters"]["resilience.rung_used.cp_full"] for s in samples]
    assert rungs == [0, 2, 6, 8, 12]
    for name in LADDER_ZERO_COUNTERS:
        assert [s["counters"][name] for s in samples] == [0] * len(samples), name
    for sample in samples:
        counters = sample["counters"]
        sample["counters"] = {name: counters[name] for name in WALL_SERIES_COUNTERS}
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
