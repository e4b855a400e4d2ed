"""Observability must never change results: traced == untraced, bit for bit."""

import json

from repro import quick_demo
from repro.experiments.runner import RunConfig, SystemConfig, run_once
from repro.obs import ObsConfig
from repro.obs.forensics import load_trace_events
from repro.workload import SyntheticWorkloadParams

SEED = 7


def _clock():
    """A constant wall clock (pins measured overhead O to exactly 0)."""
    return 0.0


def _demo_pair(seed=SEED, trace_out=None):
    """Same-seed quick_demo metrics with tracing off and on."""
    untraced = quick_demo(seed=seed, obs=ObsConfig(wall_clock=_clock))
    traced_obs = ObsConfig(trace=True, trace_out=trace_out, wall_clock=_clock)
    traced = quick_demo(seed=seed, obs=traced_obs)
    return untraced, traced


#: Verbose keys that are genuine wall-clock measurements -- everything else
#: in the verbose dict must be bit-identical between traced and untraced runs.
_WALL_TIME_KEYS = frozenset(
    {
        "solver_propagate_time",
        "solver_warm_start_time",
        "solver_tree_time",
        "solver_lns_time",
    }
)


def test_tracing_does_not_change_any_metric():
    untraced, traced = _demo_pair()
    assert untraced.as_dict() == traced.as_dict()
    v0 = untraced.as_dict(verbose=True)
    v1 = traced.as_dict(verbose=True)
    assert v0.keys() == v1.keys()
    for key in v0.keys() - _WALL_TIME_KEYS:
        assert v0[key] == v1[key], key
    assert untraced.turnarounds == traced.turnarounds
    assert untraced.late_job_ids == traced.late_job_ids


def test_happy_path_dict_stays_exactly_ontp():
    untraced, _ = _demo_pair()
    assert set(untraced.as_dict()) == {"O", "N", "T", "P"}
    verbose = untraced.as_dict(verbose=True)
    assert set(verbose) > {"O", "N", "T", "P"}
    assert {
        "solver_branches",
        "solver_fails",
        "solver_lns_iterations",
        "solver_propagations",
        "solver_propagate_time",
        "solver_warm_start_time",
        "solver_tree_time",
        "solver_lns_time",
    } <= set(verbose)


def test_one_span_per_scheduler_invocation(tmp_path):
    _, traced = _demo_pair(trace_out=str(tmp_path / "trace.json"))
    events = load_trace_events(str(tmp_path / "trace.jsonl"))
    names = [e["name"] for e in events]
    assert names.count("scheduler.invocation") == traced.scheduler_invocations
    # every task execution shows up on the sim timeline
    task_spans = [e for e in events if e.get("cat") == "task"]
    assert len(task_spans) > 0


def _tiny_config(trace_out, clock):
    return RunConfig(
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=5,
            map_tasks_range=(1, 4),
            reduce_tasks_range=(1, 2),
            e_max=8,
            ar_probability=0.3,
            s_max=150,
            deadline_multiplier_max=3.0,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=3),
        obs=ObsConfig(trace_out=trace_out, wall_clock=clock),
        seed=SEED,
    )


def test_run_once_writes_valid_trace_files(tmp_path):
    out = str(tmp_path / "trace.json")
    metrics = run_once(_tiny_config(out, _clock))
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    assert events
    names = [e["name"] for e in events]
    assert names.count("scheduler.invocation") == metrics.scheduler_invocations
    # the registry snapshot rides along and agrees with the run metrics
    snapshot = doc["otherData"]["metrics"]
    assert snapshot["scheduler.invocations"] == metrics.scheduler_invocations
    # the JSONL event log lands alongside
    jsonl = tmp_path / "trace.jsonl"
    lines = [json.loads(l) for l in jsonl.read_text().splitlines() if l]
    assert lines[-1]["name"] == "metrics.snapshot"
    spans = [e for e in events if e["ph"] != "M"]  # metadata is chrome-only
    assert len(lines) == len(spans) + 1


def test_run_once_traced_equals_untraced(tmp_path):
    out = str(tmp_path / "trace.json")
    untraced = run_once(_tiny_config(None, _clock))
    traced = run_once(_tiny_config(out, _clock))
    assert untraced.as_dict() == traced.as_dict()
    assert untraced.as_dict().keys() == {"O", "N", "T", "P"}
