"""Differential observability, end to end.

The acceptance contract of the run-diff engine:

* a same-seed self-diff reports **zero** divergence (byte-level
  determinism surfaced as an explicit verdict);
* two runs differing only in an injected solver-budget change are
  localised to the **exact** first divergent scheduler invocation
  (index + simulated time) and the first divergent event;
* every per-job delta waterfall sums exactly to that job's tardiness
  delta in integer microseconds;
* the CLI exits 0 on identical, 1 on divergent, 2 on unreadable input.
"""

import json
import os

import pytest

from repro.cli import main
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.obs.diff import (
    DIFF_SCHEMA,
    capture_run_dir,
    default_diff_config,
    diff_runs,
    load_run_dir,
)


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """Three captures: baseline, same-seed twin, budget-perturbed."""
    root = tmp_path_factory.mktemp("diff-runs")
    baseline = capture_run_dir(
        default_diff_config(), str(root / "baseline"), label="budget200"
    )
    twin = capture_run_dir(
        default_diff_config(), str(root / "twin"), label="twin"
    )
    perturbed = capture_run_dir(
        default_diff_config(fail_limit=1),
        str(root / "perturbed"),
        label="budget1",
    )
    return baseline, twin, perturbed


def test_capture_writes_the_full_artifact_set(run_dirs):
    baseline, _, _ = run_dirs
    for name in ("run.json", "trace.json", "trace.jsonl", "series.jsonl",
                 "forensics.json", "plans.json"):
        assert os.path.exists(os.path.join(baseline.path, name)), name
    assert baseline.run["schema"] == "repro-run/1"
    assert baseline.plans, "plan history must be captured"
    assert baseline.run["jobs"], "job SLAs must be captured"


def test_same_seed_self_diff_reports_zero_divergence(run_dirs):
    baseline, twin, _ = run_dirs
    diff = diff_runs(baseline, twin)
    assert diff.verdict == "identical"
    assert diff.alignment.identical
    assert diff.alignment.only_a == diff.alignment.only_b == 0
    assert diff.invocation is None
    assert diff.waterfalls == []
    assert diff.series["changed"] == {}
    assert all(e["delta"] in (0, 0.0, None) for e in diff.metrics.values())


def test_reloaded_run_dir_equals_its_in_memory_capture(run_dirs):
    baseline, _, _ = run_dirs
    assert diff_runs(load_run_dir(baseline.path), baseline).verdict == (
        "identical"
    )


def test_budget_change_localises_the_first_divergent_invocation(run_dirs):
    baseline, _, perturbed = run_dirs
    diff = diff_runs(baseline, perturbed)
    assert diff.verdict == "divergent"
    # The exact pin is part of the determinism contract for this pinned
    # scenario (seed 3, budget 200 vs 1): invocation 3, sim time 83.0s.
    assert diff.invocation is not None
    assert diff.invocation["index"] == 3
    assert diff.invocation["sim_time"] == 83.0
    # overhead jitter must not be what flagged it
    changed_paths = {c["path"] for c in diff.invocation["changed"]}
    assert "overhead" not in changed_paths
    # the event stream forks at (or before) the divergent invocation
    fd = diff.alignment.first_divergence
    assert fd is not None and fd["sim_time"] <= diff.invocation["sim_time"]


def test_delta_waterfalls_sum_exactly_to_each_jobs_delta(run_dirs):
    baseline, _, perturbed = run_dirs
    diff = diff_runs(baseline, perturbed)
    assert diff.waterfalls, "the perturbation must move jobs"
    tard_a = {int(r["job_id"]): int(r["tardiness_us"])
              for r in baseline.attributions}
    tard_b = {int(r["job_id"]): int(r["tardiness_us"])
              for r in perturbed.attributions}
    for entry in diff.waterfalls:
        job = entry["job_id"]
        expected = tard_b.get(job, 0) - tard_a.get(job, 0)
        assert entry["delta_us"] == expected
        assert sum(entry["components_us"].values()) == entry["delta_us"]


def test_diff_json_document_round_trips(run_dirs, tmp_path):
    baseline, _, perturbed = run_dirs
    diff = diff_runs(baseline, perturbed)
    path = str(tmp_path / "diff.json")
    atomic_write_json(path, diff.to_json_dict())
    doc = json.load(open(path, encoding="utf-8"))
    assert doc["schema"] == DIFF_SCHEMA
    assert doc["kind"] == "run" and doc["verdict"] == "divergent"
    assert doc["invocation"]["index"] == diff.invocation["index"]
    assert doc["a"]["label"] == "budget200" and doc["b"]["label"] == "budget1"


def test_html_diff_report_renders_the_divergence(run_dirs, tmp_path):
    from repro.obs.diffreport import render_diff_report

    baseline, twin, perturbed = run_dirs
    path = str(tmp_path / "diff.html")
    atomic_write_text(path, render_diff_report(diff_runs(baseline, perturbed)))
    doc = open(path, encoding="utf-8").read()
    assert doc.startswith("<!DOCTYPE html>")
    assert "first divergent scheduler invocation" in doc
    assert "delta waterfall" in doc
    assert "<script" not in doc  # self-contained, no scripts
    # the self-diff report renders too, saying nothing diverged
    clean = str(tmp_path / "self.html")
    atomic_write_text(clean, render_diff_report(diff_runs(baseline, twin)))
    assert "no divergence marker" in open(clean, encoding="utf-8").read()


def test_cli_exit_codes(run_dirs, tmp_path, capsys):
    baseline, twin, perturbed = run_dirs
    assert main(["diff", baseline.path, twin.path]) == 0
    assert "verdict: identical" in capsys.readouterr().out
    json_out = str(tmp_path / "cli-diff.json")
    assert main(["diff", baseline.path, perturbed.path,
                 "--json", json_out]) == 1
    out = capsys.readouterr().out
    assert "first divergent plan" in out
    assert json.load(open(json_out))["verdict"] == "divergent"
    assert main(["diff", baseline.path, str(tmp_path / "missing")]) == 2


def test_cli_sweep_diff(tmp_path, capsys):
    doc = {
        "schema": "repro-sweep/1",
        "sweep": {"name": "fig7"},
        "cells": [{"index": 0, "label": "c", "replication": 0, "seed": 0,
                   "status": "ok", "metrics": {"N": 1.0}, "counts": {}}],
        "summary": {},
    }
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(doc))
    doc["cells"][0]["metrics"]["N"] = 2.0
    pb.write_text(json.dumps(doc))
    assert main(["diff", str(pa), str(pa)]) == 0
    capsys.readouterr()
    assert main(["diff", str(pa), str(pb)]) == 1
    assert "metrics.N" in capsys.readouterr().out
