"""Per-job lateness attribution: parsing, outage pairing, the waterfall."""

from types import SimpleNamespace

from repro.core.mrcp_rm import PlanRecord
from repro.obs.forensics import (
    attribute_lateness,
    attributions_csv,
    format_attributions,
    load_trace_events,
    outage_windows,
    parse_attempts,
)
from tests.conftest import make_job

_US = 1_000_000


def _task_span(task_id, job, ts, dur, resource=0, kind="MAP", slot=0,
               planned=None, failed_attempts=None):
    args = {"job": job, "kind": kind, "slot": slot}
    if planned is not None:
        args["planned"] = planned
    if failed_attempts:
        args["failed_attempts"] = failed_attempts
    return {
        "name": task_id, "ph": "X", "cat": "task", "pid": 2, "tid": resource,
        "ts": int(ts * _US), "dur": int(dur * _US), "args": args,
    }


def _failed(task_id, job, start, ts, resource=0, reason="failed", kind="MAP",
            slot=0):
    return {
        "name": "task.failed", "ph": "i", "s": "g", "pid": 2, "tid": resource,
        "ts": int(ts * _US),
        "args": {"task": task_id, "job": job, "reason": reason,
                 "start": start, "resource": resource, "kind": kind,
                 "slot": slot},
    }


def _instant(name, ts, **args):
    return {"name": name, "ph": "i", "s": "g", "pid": 2, "tid": 0,
            "ts": int(ts * _US), "args": args}


def _metrics(tardiness_by_job, turnarounds):
    """attribute_lateness only reads these two mappings (duck-typed)."""
    return SimpleNamespace(
        tardiness_by_job=tardiness_by_job, turnarounds=turnarounds
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_attempts_completed_and_failed():
    events = [
        _task_span("t1_m0", 1, ts=30.0, dur=50.0, planned=40),
        _failed("t1_m1", 1, start=5.0, ts=12.0, reason="outage"),
        _instant("fault.outage", 4.0, resource=0),  # not an attempt
    ]
    attempts = parse_attempts(events)
    assert len(attempts) == 2
    failed, completed = attempts  # sorted by start (5.0 < 30.0)
    assert failed.outcome == "outage"
    assert failed.duration == 7.0
    assert completed.outcome == "completed"
    assert completed.planned == 40
    assert completed.inflation == 10.0  # 50 actual vs 40 planned


def test_parse_attempts_no_planned_no_inflation():
    [a] = parse_attempts([_task_span("t", 0, ts=0.0, dur=9.0)])
    assert a.planned is None and a.inflation == 0.0


def test_outage_windows_paired_and_open():
    events = [
        _instant("fault.outage", 10.0, resource=1),
        _instant("fault.recovery", 25.0, resource=1),
        _instant("fault.outage", 40.0, resource=2),  # never recovers
        _task_span("t", 0, ts=50.0, dur=10.0),  # extends the horizon
    ]
    windows = outage_windows(events)
    assert windows[0] == {"resource": 1, "start": 10.0, "end": 25.0}
    assert windows[1]["resource"] == 2
    assert windows[1]["end"] == 60.0  # open-ended -> trace horizon


def test_load_trace_events_jsonl_and_chrome(tmp_path):
    jsonl = tmp_path / "t.jsonl"
    jsonl.write_text(
        '{"name": "a", "ph": "X", "ts": 0, "dur": 1}\n'
        '{"name": "metrics.snapshot", "counters": {}}\n'
    )
    events = load_trace_events(str(jsonl))
    assert [e["name"] for e in events] == ["a"]  # snapshot skipped
    chrome = tmp_path / "t.json"
    chrome.write_text('{"traceEvents": [{"name": "b", "ph": "M"}]}')
    assert [e["name"] for e in load_trace_events(str(chrome))] == ["b"]


# ---------------------------------------------------------------------------
# The capped waterfall
# ---------------------------------------------------------------------------


def test_contention_dominated_attribution():
    """First start slipped 20s past s_j; tardiness 10s -> all contention."""
    job = make_job(1, arrival=0, earliest_start=10, deadline=100)
    events = [_task_span("t1_m0", 1, ts=30.0, dur=70.0)]
    metrics = _metrics({1: 10}, {1: 100})  # completion = 10 + 100 = 110
    [a] = attribute_lateness(metrics, [job], events)
    assert a.tardiness_us == 10 * _US
    assert a.contention_us == 10 * _US  # capped from raw 20s
    assert a.solver_us == a.fault_us == a.residual_us == 0
    assert a.raw_contention == 20.0  # uncapped measure preserved
    assert a.dominant() == "contention"
    assert sum(a.components_us.values()) == a.tardiness_us


def test_solver_component_from_plan_history():
    """No contention; plan-history overhead in the window becomes solver."""
    job = make_job(2, arrival=0, earliest_start=0, deadline=50)
    events = [_task_span("t2_m0", 2, ts=0.0, dur=54.0)]
    history = [
        PlanRecord(t=0, outcome="optimal", overhead=1.5, trigger="submit",
                   planned_starts={}),
        PlanRecord(t=90, outcome="optimal", overhead=9.0, trigger="release",
                   planned_starts={}),
    ]
    metrics = _metrics({2: 4}, {2: 54})
    [a] = attribute_lateness(metrics, [job], events, plan_history=history)
    assert a.contention_us == 0
    assert a.solver_us == int(1.5 * _US)  # only the in-window record
    assert a.raw_solver == 1.5
    assert a.residual_us == int(2.5 * _US)
    assert sum(a.components_us.values()) == a.tardiness_us


def test_solver_component_from_invocation_spans():
    """Without plan history, wall-pid scheduler.invocation spans are used."""
    job = make_job(3, arrival=0, earliest_start=0, deadline=50)
    events = [
        _task_span("t3_m0", 3, ts=10.0, dur=45.0),
        {"name": "scheduler.invocation", "ph": "X", "pid": 1, "tid": 1,
         "ts": 0, "dur": 2 * _US, "args": {"sim_time": 0}},
        {"name": "scheduler.invocation", "ph": "X", "pid": 1, "tid": 1,
         "ts": 0, "dur": 7 * _US, "args": {"sim_time": 99}},  # after start
    ]
    metrics = _metrics({3: 5}, {3: 55})
    [a] = attribute_lateness(metrics, [job], events)
    assert a.raw_solver == 2.0
    assert a.solver_us == 0  # contention (10s raw) soaked the full 5s first
    assert a.contention_us == 5 * _US


def test_fault_component_failed_attempts_and_inflation():
    job = make_job(4, arrival=0, earliest_start=0, deadline=100)
    events = [
        _failed("t4_m0", 4, start=0.0, ts=30.0),  # 30s lost to a failure
        _task_span("t4_m0", 4, ts=30.0, dur=80.0, planned=60),  # +20s inflation
    ]
    metrics = _metrics({4: 10}, {4: 110})
    [a] = attribute_lateness(metrics, [job], events)
    assert a.raw_fault == 50.0  # 30 failed + 20 straggler inflation
    assert a.fault_us == 10 * _US  # capped at the tardiness
    assert a.residual_us == 0
    assert a.dominant() == "fault"


def test_residual_when_nothing_measured():
    """A late job with no measured delays lands entirely in residual."""
    job = make_job(5, arrival=0, earliest_start=0, deadline=10)
    events = [_task_span("t5_m0", 5, ts=0.0, dur=25.0)]
    metrics = _metrics({5: 15}, {5: 25})
    [a] = attribute_lateness(metrics, [job], events)
    assert a.residual_us == 15 * _US
    assert a.dominant() == "residual"


def test_untraced_job_is_all_residual():
    """No attempts in the trace for the job -> no raw measures at all."""
    job = make_job(6, arrival=0, earliest_start=0, deadline=10)
    metrics = _metrics({6: 3}, {6: 13})
    [a] = attribute_lateness(metrics, [job], [])
    assert a.first_start is None
    assert a.components_us["residual"] == 3 * _US


def test_formatters():
    job = make_job(1, arrival=0, earliest_start=10, deadline=100)
    events = [_task_span("t1_m0", 1, ts=30.0, dur=70.0)]
    attrs = attribute_lateness(_metrics({1: 10}, {1: 100}), [job], events)
    table = format_attributions(attrs)
    assert "contention" in table and "dominant" in table
    csv = attributions_csv(attrs)
    assert csv.startswith("job_id,")
    assert csv.count("\n") == 2  # header + one row (trailing newline)
    assert format_attributions([]) == "no late jobs: nothing to attribute"


def test_outage_window_unpaired_begin_at_trace_end():
    """An outage opening on the very last event closes at its own instant
    (a zero-length open window, not a negative or missing one)."""
    events = [
        _task_span("t", 0, ts=0.0, dur=10.0),
        _instant("fault.outage", 30.0, resource=0),
    ]
    [window] = outage_windows(events)
    assert window == {"resource": 0, "start": 30.0, "end": 30.0}


def test_outage_window_zero_length_pair():
    """Recovery at the same instant as the outage yields a 0-length window."""
    events = [
        _instant("fault.outage", 12.0, resource=3),
        _instant("fault.recovery", 12.0, resource=3),
    ]
    [window] = outage_windows(events)
    assert window["start"] == window["end"] == 12.0
    assert window["resource"] == 3


def test_outage_window_recovery_without_begin_is_ignored():
    assert outage_windows([_instant("fault.recovery", 5.0, resource=1)]) == []


def test_attribution_round_trips_through_dict():
    import json

    from repro.obs.forensics import attribution_from_dict

    job = make_job(7, arrival=0, earliest_start=0, deadline=10)
    events = [_task_span("t7_m0", 7, ts=20.0, dur=15.0)]
    [a] = attribute_lateness(_metrics({7: 25}, {7: 35}), [job], events)
    row = a.as_dict()
    assert json.loads(json.dumps(row)) == row  # JSON-safe
    assert attribution_from_dict(row) == a
