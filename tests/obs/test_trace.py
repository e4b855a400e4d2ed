"""Tracer: span recording, two timebases, null fast path, file output."""

import json

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SIM_PID,
    WALL_PID,
    TraceRecorder,
    Tracer,
)


class FakeClock:
    """A controllable wall clock (seconds)."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_tracer():
    clock = FakeClock()
    tracer = Tracer(TraceRecorder(), wall_clock=clock)
    return tracer, clock


def test_disabled_tracer_is_all_noops():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.span("x") is NULL_SPAN
    NULL_TRACER.marker("x")
    NULL_TRACER.instant("x")
    NULL_TRACER.sim_span("x", "cat", 0.0, 1.0)
    with pytest.raises(RuntimeError):
        NULL_TRACER.write("/tmp/never.json")


def test_null_span_is_shared_and_inert():
    span = NULL_TRACER.span("a")
    assert span is NULL_TRACER.span("b")  # no allocation per call
    with span as s:
        assert s.add(key="value") is s  # chainable no-op


def test_span_records_complete_event_with_both_clocks():
    tracer, clock = make_tracer()
    tracer.bind_sim_clock(lambda: 42.0)
    clock.t = 1.0
    with tracer.span("work", "cat", {"n": 3}) as span:
        span.add(extra=True)
        clock.t = 1.5
    (event,) = tracer.recorder.events
    assert event["name"] == "work"
    assert event["cat"] == "cat"
    assert event["ph"] == "X"
    assert event["pid"] == WALL_PID
    assert event["ts"] == pytest.approx(1.0e6)  # epoch was t=0
    assert event["dur"] == pytest.approx(0.5e6)
    assert event["args"]["n"] == 3
    assert event["args"]["extra"] is True
    assert event["args"]["sim_time"] == 42.0


def test_marker_is_zero_duration_span():
    tracer, _ = make_tracer()
    tracer.marker("cp.search", "cp.phase", {"skipped": True})
    (event,) = tracer.recorder.events
    assert event["ph"] == "X"
    assert event["dur"] == 0.0
    assert event["args"]["skipped"] is True


def test_sim_span_lands_on_sim_process_in_microseconds():
    tracer, _ = make_tracer()
    tracer.sim_span("t0_m0", "task", 10.0, 25.0, tid=3, args={"job": 0})
    (event,) = tracer.recorder.events
    assert event["pid"] == SIM_PID
    assert event["tid"] == 3
    assert event["ts"] == pytest.approx(10.0e6)
    assert event["dur"] == pytest.approx(15.0e6)


def test_instant_on_both_tracks():
    tracer, _ = make_tracer()
    tracer.bind_sim_clock(lambda: 7.0)
    tracer.instant("wall-ev")
    tracer.instant("sim-ev", sim_track=True)
    wall, sim = tracer.recorder.events
    assert wall["ph"] == "i" and wall["pid"] == WALL_PID
    assert wall["args"]["sim_time"] == 7.0
    assert sim["pid"] == SIM_PID
    assert sim["ts"] == pytest.approx(7.0e6)


def test_write_produces_loadable_chrome_trace_and_jsonl(tmp_path):
    tracer, clock = make_tracer()
    tracer.registry.counter("events").inc(3)
    with tracer.span("work"):
        clock.t = 0.25
    path = str(tmp_path / "trace.json")
    chrome_path, jsonl_path = tracer.write(path)
    assert chrome_path == path
    assert jsonl_path == str(tmp_path / "trace.jsonl")

    with open(chrome_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = [e["name"] for e in doc["traceEvents"]]
    assert "work" in names
    assert names.count("process_name") == 2  # both timebase labels
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["metrics"]["events"] == 3

    lines = [
        json.loads(line)
        for line in open(jsonl_path, encoding="utf-8")
        if line.strip()
    ]
    assert lines[-1]["name"] == "metrics.snapshot"
    assert lines[-1]["args"]["events"] == 3
    assert any(line["name"] == "work" for line in lines)


def test_jsonl_path_appends_when_no_json_suffix(tmp_path):
    tracer, _ = make_tracer()
    tracer.marker("m")
    path = str(tmp_path / "trace.out")
    _, jsonl_path = tracer.write(path)
    assert jsonl_path == path + ".jsonl"


def test_enabled_tracer_gets_private_registry():
    a, _ = make_tracer()
    b, _ = make_tracer()
    a.registry.counter("x").inc()
    assert b.registry.as_dict() == {}
