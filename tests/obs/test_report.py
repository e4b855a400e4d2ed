"""The self-contained HTML run report."""

import pytest

from repro import quick_demo
from repro.ioutil import atomic_write_text
from repro.obs import ObsConfig
from repro.obs.forensics import attribute_lateness, load_trace_events
from repro.obs.report import render_report
from repro.workload import make_uniform_cluster


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced quick-demo run shared across the module's tests."""
    out = tmp_path_factory.mktemp("trace")
    metrics = quick_demo(seed=3, obs=ObsConfig(trace_out=str(out / "trace.json")))
    # quick_demo builds exactly this cluster internally
    resources = make_uniform_cluster(4, 2, 2)
    return metrics, resources, load_trace_events(str(out / "trace.jsonl"))


def test_report_is_self_contained(traced_run, tmp_path):
    metrics, resources, events = traced_run
    out = tmp_path / "report.html"
    atomic_write_text(
        str(out), render_report(metrics, resources=resources, events=events)
    )
    html = out.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html
    assert 'src="http' not in html and 'href="http' not in html
    assert "@import" not in html and "url(" not in html


def test_report_sections_render(traced_run):
    metrics, resources, events = traced_run
    html = render_report(metrics, resources=resources, events=events)
    assert html.count("<svg") >= 2  # Gantt + utilization
    assert "Cluster Gantt" in html
    assert "Utilization" in html
    assert "O · overhead/job" in html  # stat tiles
    # every task bar ships a native tooltip
    assert "<title>" in html


def test_metrics_only_report():
    """Only RunMetrics: tiles render, chart sections degrade gracefully."""
    metrics = quick_demo(seed=1)
    html = render_report(metrics)
    assert "O · overhead/job" in html
    assert "Cluster Gantt" not in html


def test_attribution_waterfall_renders(traced_run):
    metrics, resources, events = traced_run
    jobs_stub = []  # no late jobs in the happy-path demo run
    attributions = attribute_lateness(metrics, jobs_stub, events)
    html = render_report(
        metrics, resources=resources, events=events, attributions=attributions
    )
    assert "Why were the late jobs late?" in html
    if not attributions:
        assert "every deadline was met" in html


def test_title_is_escaped():
    metrics = quick_demo(seed=1)
    html = render_report(metrics, title='<script>alert("x")</script>')
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_dark_mode_palette_present(traced_run):
    metrics, _, _ = traced_run
    html = render_report(metrics)
    assert "prefers-color-scheme: dark" in html
    assert "--surface-1: #1a1a19" in html  # selected dark steps, not inverted
